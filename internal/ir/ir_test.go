package ir

import (
	"strings"
	"testing"

	"tiling3d/internal/core"
)

func TestExprEval(t *testing.T) {
	e := Var("I", 3)
	if got := e.Eval(map[string]int{"I": 4}); got != 7 {
		t.Errorf("Eval = %d, want 7", got)
	}
	if got := Con(5).Eval(nil); got != 5 {
		t.Errorf("Con eval = %d", got)
	}
	sum := Expr{Const: -1, Coeff: map[string]int{"I": 2, "J": -1}}
	if got := sum.Eval(map[string]int{"I": 3, "J": 4}); got != 1 {
		t.Errorf("2I-J-1 = %d, want 1", got)
	}
}

func TestExprString(t *testing.T) {
	for _, tc := range []struct {
		e    Expr
		want string
	}{
		{Con(0), "0"},
		{Con(-3), "-3"},
		{Var("I", 0), "I"},
		{Var("I", -1), "I-1"},
		{Var("JJ", 2), "JJ+2"},
		{Expr{Coeff: map[string]int{"I": 2}}, "2*I"},
	} {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String(%+v) = %q, want %q", tc.e, got, tc.want)
		}
	}
}

func TestBoundMinMax(t *testing.T) {
	b := BoundOf(Var("JJ", 4), Con(10))
	env := map[string]int{"JJ": 3}
	if got := b.EvalMin(env); got != 7 {
		t.Errorf("EvalMin = %d, want 7", got)
	}
	env["JJ"] = 20
	if got := b.EvalMin(env); got != 10 {
		t.Errorf("EvalMin clamped = %d, want 10", got)
	}
	if got := b.EvalMax(env); got != 24 {
		t.Errorf("EvalMax = %d, want 24", got)
	}
}

func TestAnalyzeJacobi(t *testing.T) {
	st, err := Analyze(JacobiNest(100, 30))
	if err != nil {
		t.Fatal(err)
	}
	if st != core.Jacobi6pt() {
		t.Errorf("Analyze(jacobi) = %+v, want %+v", st, core.Jacobi6pt())
	}
}

func TestAnalyzeResid(t *testing.T) {
	st, err := Analyze(ResidNest(100, 30))
	if err != nil {
		t.Fatal(err)
	}
	if st != core.Resid27pt() {
		t.Errorf("Analyze(resid) = %+v, want %+v", st, core.Resid27pt())
	}
}

func TestGroupsResid(t *testing.T) {
	gs, err := Groups(ResidNest(50, 20))
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 3 {
		t.Fatalf("got %d groups, want 3", len(gs))
	}
	byName := map[string]RefGroup{}
	for _, g := range gs {
		byName[g.Array] = g
	}
	if u := byName["U"]; u.Loads != 27 || u.Stores != 0 {
		t.Errorf("U group = %+v", u)
	}
	if v := byName["V"]; v.Loads != 1 {
		t.Errorf("V group = %+v", v)
	}
	if r := byName["R"]; r.Stores != 1 {
		t.Errorf("R group = %+v", r)
	}
	dom, err := DominantGroup(ResidNest(50, 20))
	if err != nil {
		t.Fatal(err)
	}
	if dom.Array != "U" {
		t.Errorf("dominant group = %s, want U", dom.Array)
	}
}

func TestDependenceDistancesJacobi(t *testing.T) {
	// A is only written, B only read: no same-array pairs.
	d, err := dependenceDistances(JacobiNest(20, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 0 {
		t.Errorf("jacobi has %d dependences, want 0: %v", len(d), d)
	}
}

func TestDependenceDistancesInPlace(t *testing.T) {
	// An in-place Gauss-Seidel-style nest: A(I) = A(I-1) + A(I+1).
	i := Var("I", 0)
	n := &Nest{
		Loops: []Loop{SimpleLoop("I", 1, 10)},
		Body: []Ref{
			Load("A", i.Plus(-1)),
			Load("A", i.Plus(1)),
			StoreRef("A", i),
		},
	}
	d, err := dependenceDistances(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 2 {
		t.Fatalf("got %d distances, want 2: %v", len(d), d)
	}
	seen := map[int]bool{}
	for _, v := range d {
		seen[v[0]] = true
	}
	if !seen[1] || !seen[-1] {
		t.Errorf("distances %v, want {+1, -1}", d)
	}
}

func TestAnalyzeRejectsNonAffine(t *testing.T) {
	n := &Nest{
		Loops: []Loop{SimpleLoop("I", 1, 10)},
		Body: []Ref{
			Load("A", Expr{Coeff: map[string]int{"I": 2}}), // A(2*I)
			StoreRef("A", Var("I", 0)),
		},
	}
	if _, err := Groups(n); err == nil {
		t.Error("2*I subscript not rejected")
	}
}

func TestNestString(t *testing.T) {
	s := JacobiNest(10, 10).String()
	for _, want := range []string{"do K = 1, 8", "do I = 1, 8", "store A(I,J,K)", "B(I-1,J,K)"} {
		if !strings.Contains(s, want) {
			t.Errorf("nest rendering missing %q:\n%s", want, s)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	n := JacobiNest(10, 10)
	c := n.Clone()
	c.Loops[0].Lo.Exprs[0].Const = 99
	c.Body[0].Subs[0].Coeff["I"] = 5
	if n.Loops[0].Lo.Exprs[0].Const == 99 {
		t.Error("Clone shares bound expressions")
	}
	if n.Body[0].Subs[0].Coeff["I"] == 5 {
		t.Error("Clone shares subscript maps")
	}
}

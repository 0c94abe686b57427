package deps

import (
	"strings"
	"testing"

	"tiling3d/internal/ir"
)

// TestGoldenTables pins the dependence tables of the paper's kernels.
// JACOBI and RESID never read the arrays they write, so a single sweep
// carries nothing; the in-place red-black pass carries plane- and
// row-distance dependences, with the unit I distances pruned as
// unrealizable under the step-2 inner loop.
func TestGoldenTables(t *testing.T) {
	cases := []struct {
		name string
		nest *ir.Nest
		want string
	}{
		{"jacobi", ir.JacobiNest(12, 8), "dependences (loop order K,J,I):\n  none\n"},
		{"resid", ir.ResidNest(12, 8), "dependences (loop order I3,I2,I1):\n  none\n"},
		{"redblack", ir.RedBlackNest(12, 8), strings.Join([]string{
			"dependences (loop order K,J,I):",
			"  anti   A (0,0,0): load A(I,J,K) -> store A(I,J,K)",
			"  flow   A (0,1,0): store A(I,J,K) -> load A(I,J-1,K)",
			"  anti   A (0,1,0): load A(I,J+1,K) -> store A(I,J,K)",
			"  flow   A (1,0,0): store A(I,J,K) -> load A(I,J,K-1)",
			"  anti   A (1,0,0): load A(I,J,K+1) -> store A(I,J,K)",
			"",
		}, "\n")},
	}
	for _, c := range cases {
		tab, err := Dependences(c.nest)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := tab.String(); got != c.want {
			t.Errorf("%s table:\n got:\n%s want:\n%s", c.name, got, c.want)
		}
		if len(tab.Issues) != 0 {
			t.Errorf("%s: unexpected issues %v", c.name, tab.IssueStrings())
		}
	}
}

// twoDeep builds do J=1,10 { do I=1,10 { body } }.
func twoDeep(body ...ir.Ref) *ir.Nest {
	return &ir.Nest{
		Loops: []ir.Loop{ir.SimpleLoop("J", 1, 10), ir.SimpleLoop("I", 1, 10)},
		Body:  body,
	}
}

func mustTable(t *testing.T, n *ir.Nest) *Table {
	t.Helper()
	tab, err := Dependences(n)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestOrientationAndKinds(t *testing.T) {
	i, j := ir.Var("I", 0), ir.Var("J", 0)

	// Store first, load of an older element: the store's value is read
	// one J-iteration later — flow, distance (1,0), store is source.
	tab := mustTable(t, twoDeep(ir.StoreRef("A", i, j), ir.Load("A", i, j.Plus(-1))))
	if len(tab.Deps) != 1 {
		t.Fatalf("deps = %v", tab.Deps)
	}
	d := tab.Deps[0]
	if d.Kind != Flow || d.Src != 0 || d.Dst != 1 || d.Dist[0] != 1 || d.Dist[1] != 0 {
		t.Errorf("flow dep = %+v", d)
	}
	if got := d.String(); got != "flow A distance (1,0) (#0 -> #1)" {
		t.Errorf("String = %q", got)
	}
	if c := carried(d, tab.Nest); c != "J" {
		t.Errorf("Carried = %q", c)
	}

	// Same pair with the raw distance lexicographically negative: the
	// analyzer must flip orientation (the load of the *newer* element is
	// overwritten later — anti, load is source).
	tab = mustTable(t, twoDeep(ir.StoreRef("A", i, j), ir.Load("A", i, j.Plus(1))))
	d = tab.Deps[0]
	if d.Kind != Anti || d.Src != 1 || d.Dst != 0 || d.Dist[0] != 1 {
		t.Errorf("anti dep = %+v", d)
	}

	// Store/store on the same element, one row apart: output dependence.
	tab = mustTable(t, twoDeep(ir.StoreRef("A", i, j), ir.StoreRef("A", i, j.Plus(-1))))
	d = tab.Deps[0]
	if d.Kind != Output || d.Dist[0] != 1 {
		t.Errorf("output dep = %+v", d)
	}

	// Same iteration touches: program order decides, distance zero.
	tab = mustTable(t, twoDeep(ir.Load("A", i, j), ir.StoreRef("A", i, j)))
	d = tab.Deps[0]
	if d.Kind != Anti || d.Src != 0 || d.Dst != 1 || lexSign(d.Dist) != 0 {
		t.Errorf("loop-independent dep = %+v", d)
	}
	if c := carried(d, tab.Nest); c != "" {
		t.Errorf("Carried = %q, want loop-independent", c)
	}
}

func TestPairsThatNeverAlias(t *testing.T) {
	i, j := ir.Var("I", 0), ir.Var("J", 0)
	cases := []struct {
		name string
		nest *ir.Nest
	}{
		{"distinct constant planes", twoDeep(ir.StoreRef("A", i, j, ir.Con(2)), ir.Load("A", i, j, ir.Con(3)))},
		{"conflicting same-var constraints", twoDeep(ir.StoreRef("A", i, j, i), ir.Load("A", i, j, i.Plus(1)))},
		{"distance beyond loop span", twoDeep(ir.StoreRef("A", i, j), ir.Load("A", i, j.Plus(11)))},
		{"no store in pair", twoDeep(ir.Load("A", i, j), ir.Load("A", i, j.Plus(1)))},
		{"different arrays", twoDeep(ir.StoreRef("A", i, j), ir.Load("B", i, j))},
	}
	for _, c := range cases {
		if tab := mustTable(t, c.nest); len(tab.Deps) != 0 {
			t.Errorf("%s: deps = %v", c.name, tab.Deps)
		}
	}
}

func TestStepPruning(t *testing.T) {
	i, j := ir.Var("I", 0), ir.Var("J", 0)
	step2 := func(body ...ir.Ref) *ir.Nest {
		return &ir.Nest{
			Loops: []ir.Loop{
				ir.SimpleLoop("J", 1, 10),
				{Name: "I", Lo: ir.BoundOf(ir.Con(1)), Hi: ir.BoundOf(ir.Con(10)), Step: 2},
			},
			Body: body,
		}
	}
	// Unit I distance: unrealizable under step 2.
	if tab := mustTable(t, step2(ir.StoreRef("A", i, j), ir.Load("A", i.Plus(1), j))); len(tab.Deps) != 0 {
		t.Errorf("step-2 unit distance not pruned: %v", tab.Deps)
	}
	// Distance 2: realizable.
	if tab := mustTable(t, step2(ir.StoreRef("A", i, j), ir.Load("A", i.Plus(2), j))); len(tab.Deps) != 1 {
		t.Errorf("step-2 even distance pruned: %v", tab.Deps)
	}
}

// TestUnknownSubscripts checks unanalyzable pairs degrade into Unknown
// dependences plus positioned Issues instead of aborting.
func TestUnknownSubscripts(t *testing.T) {
	i, j := ir.Var("I", 0), ir.Var("J", 0)

	// One reference pins a dimension to a constant plane.
	st := ir.StoreRef("A", i, j)
	ld := ir.Load("A", i, ir.Con(5))
	ld.Pos = ir.Pos{Line: 3, Col: 9}
	tab := mustTable(t, twoDeep(st, ld))
	if len(tab.Deps) != 1 || !tab.Deps[0].Unknown || !tab.HasUnknown() {
		t.Fatalf("deps = %v", tab.Deps)
	}
	if got := tab.Deps[0].String(); got != "flow A distance unknown (#0 -> #1)" {
		t.Errorf("String = %q", got)
	}
	if len(tab.Issues) != 1 || !strings.Contains(tab.Issues[0].String(), "3:9") {
		t.Errorf("issues = %v", tab.IssueStrings())
	}
	// Unknown deps count as carried: they block everything.
	if len(tab.Carried()) != 1 {
		t.Errorf("Carried() = %v", tab.Carried())
	}

	// Transposed index spaces: A(I,J) vs A(J,I).
	tab = mustTable(t, twoDeep(ir.StoreRef("A", i, j), ir.Load("A", j, i)))
	if len(tab.Deps) != 1 || !tab.Deps[0].Unknown {
		t.Errorf("transposed: deps = %v", tab.Deps)
	}

	// Non-affine-model subscript (I+J): ref-driven issue, Unknown pair.
	ij := ir.Expr{Coeff: map[string]int{"I": 1, "J": 1}}
	tab = mustTable(t, twoDeep(ir.StoreRef("A", i, j), ir.Load("A", ij, j)))
	if len(tab.Deps) != 1 || !tab.Deps[0].Unknown || len(tab.Issues) == 0 {
		t.Errorf("non-affine: deps = %v issues = %v", tab.Deps, tab.IssueStrings())
	}

	// A loop variable that is not a loop of the nest: the store/load
	// pair is Unknown, and the unanalyzable store conservatively carries
	// an Unknown output dependence on itself too.
	q := ir.Var("Q", 0)
	tab = mustTable(t, twoDeep(ir.StoreRef("A", i, q), ir.Load("A", i, q)))
	if len(tab.Deps) != 2 {
		t.Fatalf("free var: deps = %v", tab.Deps)
	}
	for _, d := range tab.Deps {
		if !d.Unknown {
			t.Errorf("free var: dep %v not unknown", d)
		}
	}
}

// threeDeep builds do K=1,10 { do J=1,10 { do I=1,10 { body } } }.
func threeDeep(body ...ir.Ref) *ir.Nest {
	return &ir.Nest{
		Loops: []ir.Loop{
			ir.SimpleLoop("K", 1, 10),
			ir.SimpleLoop("J", 1, 10),
			ir.SimpleLoop("I", 1, 10),
		},
		Body: body,
	}
}

// TestUnconstrainedLoopDependences pins the direction-* handling: a
// pair whose subscripts leave a loop of the nest unconstrained aliases
// at *every* realizable distance in it, so no constant vector exists.
// The old analyzer reported distance 0 in the free loop, hiding the
// anti dependences (d,-1,0) that make a K<->J interchange of
// A(I,J)=A(I,J-1) illegal.
func TestUnconstrainedLoopDependences(t *testing.T) {
	i, j := ir.Var("I", 0), ir.Var("J", 0)

	tab := mustTable(t, threeDeep(ir.StoreRef("A", i, j), ir.Load("A", i, j.Plus(-1))))
	if len(tab.Deps) != 2 || !tab.HasUnknown() {
		t.Fatalf("deps = %v", tab.Deps)
	}
	var self, pair *Dependence
	for idx := range tab.Deps {
		d := &tab.Deps[idx]
		if !d.Unknown || !strings.Contains(d.String(), "loop K unconstrained") {
			t.Errorf("dep = %v", d)
		}
		if d.Src == d.Dst {
			self = d
		} else {
			pair = d
		}
	}
	if self == nil || self.Kind != Output || self.Src != 0 {
		t.Errorf("missing output self-dependence: %v", tab.Deps)
	}
	if pair == nil || pair.Kind != Flow {
		t.Errorf("missing flow pair dependence: %v", tab.Deps)
	}
	// Unknown deps count as carried: they must block reordering.
	if len(tab.Carried()) != 2 {
		t.Errorf("Carried() = %v", tab.Carried())
	}

	// Certify refuses a table it cannot express, even for the identity.
	n := threeDeep(ir.StoreRef("A", i, j), ir.Load("A", i, j.Plus(-1)))
	if err := Certify(n, n.Clone()); err == nil || !strings.Contains(err.Error(), "not analyzable") {
		t.Errorf("Certify = %v", err)
	}

	// A lone store omitting a loop carries the output self-dependence
	// on its own (same element rewritten every K iteration).
	tab = mustTable(t, threeDeep(ir.StoreRef("A", i, j)))
	if len(tab.Deps) != 1 || tab.Deps[0].Kind != Output || !tab.Deps[0].Unknown {
		t.Errorf("store-only deps = %v", tab.Deps)
	}

	// A free loop that cannot advance (single iteration) realizes only
	// distance 0, so the zero vector is exact: no dependence.
	one := &ir.Nest{
		Loops: []ir.Loop{ir.SimpleLoop("K", 5, 5), ir.SimpleLoop("J", 1, 10), ir.SimpleLoop("I", 1, 10)},
		Body:  []ir.Ref{ir.StoreRef("A", i, j), ir.Load("A", i, j.Plus(-1))},
	}
	tabOne := mustTable(t, one)
	if len(tabOne.Deps) != 1 || tabOne.Deps[0].Unknown || tabOne.Deps[0].Dist[1] != 1 {
		t.Errorf("trip-1 free loop deps = %v", tabOne.Deps)
	}
}

// TestCrossNestOuterInvariantRefused: a cross-nest reference to a
// shared array that never subscripts the outer loop is touched on
// every outer iteration — no finite shift bounds the dependence, so
// MinFusionShift must refuse instead of silently assuming offset 0.
func TestCrossNestOuterInvariantRefused(t *testing.T) {
	i, j, k := ir.Var("I", 0), ir.Var("J", 0), ir.Var("K", 0)
	loops := func() []ir.Loop {
		return []ir.Loop{
			ir.SimpleLoop("K", 1, 10),
			ir.SimpleLoop("J", 1, 10),
			ir.SimpleLoop("I", 1, 10),
		}
	}
	n1 := &ir.Nest{Loops: loops(), Body: []ir.Ref{ir.StoreRef("A", i, j, k)}}
	fixed := ir.Load("A", i, j, ir.Con(5))
	fixed.Pos = ir.Pos{Line: 7, Col: 3}
	n2 := &ir.Nest{Loops: loops(), Body: []ir.Ref{fixed, ir.StoreRef("B", i, j, k)}}
	_, _, err := MinFusionShift(n1, n2)
	if err == nil || !strings.Contains(err.Error(), "does not subscript outer loop K") || !strings.Contains(err.Error(), "7:3") {
		t.Errorf("MinFusionShift = %v", err)
	}
	// Outer-invariant refs to arrays the nests do not share stay out of
	// scope: no cross pair, no refusal.
	n2only := &ir.Nest{Loops: loops(), Body: []ir.Ref{ir.Load("C", i, j, ir.Con(5)), ir.StoreRef("B", i, j, k)}}
	if shift, _, err := MinFusionShift(n1, n2only); err != nil || shift != 0 {
		t.Errorf("unshared array: shift=%d err=%v", shift, err)
	}
}

func TestDimensionalityMismatchErrors(t *testing.T) {
	i, j := ir.Var("I", 0), ir.Var("J", 0)
	if _, err := Dependences(twoDeep(ir.StoreRef("A", i, j), ir.Load("A", i))); err == nil {
		t.Error("inconsistent dimensionality accepted")
	}
}

func TestPermutedSign(t *testing.T) {
	i, j := ir.Var("I", 0), ir.Var("J", 0)
	// Distance (1,-1) in (J,I) order: legal as-is, reversed under (I,J).
	tab := mustTable(t, twoDeep(ir.StoreRef("A", i.Plus(-1), j.Plus(1)), ir.Load("A", i, j)))
	if len(tab.Deps) != 1 {
		t.Fatalf("deps = %v", tab.Deps)
	}
	d := tab.Deps[0]
	if d.Dist[0] != 1 || d.Dist[1] != -1 {
		t.Fatalf("dist = %v", d.Dist)
	}
	if s := d.PermutedSign([]int{0, 1}); s != 1 {
		t.Errorf("identity sign = %d", s)
	}
	if s := d.PermutedSign([]int{1, 0}); s != -1 {
		t.Errorf("swapped sign = %d", s)
	}
}

// carried is the name of the outermost loop with nonzero distance, or ""
// for a loop-independent (same-iteration) dependence.
func carried(d Dependence, n *ir.Nest) string {
	for i, v := range d.Dist {
		if v != 0 {
			return n.Loops[i].Name
		}
	}
	return ""
}

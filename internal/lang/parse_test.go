package lang

import (
	"reflect"
	"strings"
	"testing"

	"tiling3d/internal/grid"
	"tiling3d/internal/ir"
)

// figure3 is the paper's 3D Jacobi listing, verbatim modulo the
// elisions in the figure.
const figure3 = `
do K=2,N-1
  do J=2,N-1
    do I=2,N-1
      A(I,J,K) = C*(B(I-1,J,K)+B(I+1,J,K)+
                    B(I,J-1,K)+B(I,J+1,K)+
                    B(I,J,K-1)+B(I,J,K+1))
`

func TestParseFigure3MatchesBuilder(t *testing.T) {
	got, err := ParseNamed("", figure3, map[string]int{"N": 40})
	if err != nil {
		t.Fatal(err)
	}
	want := ir.JacobiNest(40, 40)
	if !reflect.DeepEqual(got.Loops, want.Loops) {
		t.Errorf("loops differ:\ngot  %+v\nwant %+v", got.Loops, want.Loops)
	}
	if len(got.Body) != len(want.Body) {
		t.Fatalf("body lengths differ: %d vs %d", len(got.Body), len(want.Body))
	}
	if got.String() != want.String() {
		t.Errorf("nest rendering differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// figure13 is the RESID listing from Figure 13.
const figure13 = `
do I3=2,N-1
 do I2=2,N-1
  do I1=2,N-1
   R(I1,I2,I3)=V(I1,I2,I3)
     -A0*( U(I1,I2,I3) )
     -A1*( U(I1-1,I2,I3) + U(I1+1,I2,I3)
         + U(I1,I2-1,I3) + U(I1,I2+1,I3)
         + U(I1,I2,I3-1) + U(I1,I2,I3+1) )
     -A2*( U(I1-1,I2-1,I3) + U(I1+1,I2-1,I3)
         + U(I1-1,I2+1,I3) + U(I1+1,I2+1,I3)
         + U(I1,I2-1,I3-1) + U(I1,I2+1,I3-1)
         + U(I1,I2-1,I3+1) + U(I1,I2+1,I3+1)
         + U(I1-1,I2,I3-1) + U(I1-1,I2,I3+1)
         + U(I1+1,I2,I3-1) + U(I1+1,I2,I3+1) )
     -A3*( U(I1-1,I2-1,I3-1) + U(I1+1,I2-1,I3-1)
         + U(I1-1,I2+1,I3-1) + U(I1+1,I2+1,I3-1)
         + U(I1-1,I2-1,I3+1) + U(I1+1,I2-1,I3+1)
         + U(I1-1,I2+1,I3+1) + U(I1+1,I2+1,I3+1) )
`

func TestParseFigure13MatchesBuilder(t *testing.T) {
	got, err := ParseNamed("", figure13, map[string]int{"N": 30})
	if err != nil {
		t.Fatal(err)
	}
	want := ir.ResidNest(30, 30)
	if got.String() != want.String() {
		t.Errorf("nest rendering differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if len(got.Compute.Terms) != 5 {
		t.Fatalf("got %d terms, want 5", len(got.Compute.Terms))
	}
	for i, term := range got.Compute.Terms {
		wantNeg := i > 0
		if term.Neg != wantNeg {
			t.Errorf("term %d (%s): Neg=%v, want %v", i, term.Coeff, term.Neg, wantNeg)
		}
	}
}

// TestParsedNestInterprets runs the parsed Figure 3 through the
// interpreter against the builder nest: identical values.
func TestParsedNestInterprets(t *testing.T) {
	n := 12
	parsed, err := ParseNamed("", figure3, map[string]int{"N": n})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() map[string]*grid.Grid3D {
		a := grid.New3D(n, n, n)
		b := grid.New3D(n, n, n)
		b.FillFunc(func(i, j, k int) float64 { return float64(i) - 0.5*float64(j*k) })
		return map[string]*grid.Grid3D{"A": a, "B": b}
	}
	consts := map[string]float64{"C": 1.0 / 6}
	e1, e2 := mk(), mk()
	if err := ir.Interpret(parsed, e1, consts); err != nil {
		t.Fatal(err)
	}
	if err := ir.Interpret(ir.JacobiNest(n, n), e2, consts); err != nil {
		t.Fatal(err)
	}
	if d := e1["A"].MaxAbsDiff(e2["A"]); d != 0 {
		t.Errorf("parsed nest computes differently: %g", d)
	}
}

func TestParse2D(t *testing.T) {
	src := `
do J=2,M-1
 do I=2,M-1
  A(I,J) = C*(B(I-1,J)+B(I+1,J)+B(I,J-1)+B(I,J+1))
`
	got, err := ParseNamed("", src, map[string]int{"M": 20})
	if err != nil {
		t.Fatal(err)
	}
	want := ir.Jacobi2DNest(20)
	if got.String() != want.String() {
		t.Errorf("2D nest differs:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestParseStepAndBareBounds(t *testing.T) {
	src := `
do K=1,N
 do J=2,N-1
  do I=2,N-1,2
   A(I,J,K) = B(I,J,K)
`
	nest, err := ParseNamed("", src, map[string]int{"N": 10})
	if err != nil {
		t.Fatal(err)
	}
	if nest.Loops[0].Lo.Exprs[0].Const != 0 || nest.Loops[0].Hi.Exprs[0].Const != 9 {
		t.Errorf("bare bounds wrong: %+v", nest.Loops[0])
	}
	if nest.Loops[2].Step != 2 {
		t.Errorf("step = %d", nest.Loops[2].Step)
	}
	if nest.Compute.Terms[0].Coeff != "ONE" {
		t.Errorf("bare ref coefficient = %q", nest.Compute.Terms[0].Coeff)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
		params    map[string]int
	}{
		{"empty", "", nil},
		{"no loop", "A(I) = B(I)", nil},
		{"unknown param", "do I=2,N-1\n A(I)=B(I)", nil},
		{"free subscript", "do I=2,9\n A(J)=B(I)", nil},
		{"shadowed loop", "do I=1,5\n do I=1,5\n  A(I)=B(I)", nil},
		{"negative step", "do I=9,2,0\n A(I)=B(I)", nil},
		{"garbage char", "do I=2,9\n A(I)=B(I)&", nil},
		{"missing paren", "do I=2,9\n A(I)=C*(B(I)", nil},
		{"trailing tokens", "do I=2,9\n A(I)=B(I)\n extra", nil},
	}
	for _, c := range cases {
		if _, err := ParseNamed("", c.src, c.params); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestParseCaseInsensitive(t *testing.T) {
	src := "DO k=2,n-1\n do J=2,n-1\n  Do i=2,n-1\n   a(i,j,K) = c*(b(i-1,j,K)+b(i+1,j,K)+b(i,j-1,K)+b(i,j+1,K)+b(i,j,K-1)+b(i,j,K+1))"
	got, err := ParseNamed("", src, map[string]int{"n": 15})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got.String(), "store A(I,J,K)") {
		t.Errorf("case folding failed:\n%s", got)
	}
}

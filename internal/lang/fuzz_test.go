package lang

import (
	"strings"
	"testing"

	"tiling3d/internal/ir"
)

// fuzzParams gives the fuzzer every size parameter the seed corpus
// mentions, so mutated listings exercise the parser body rather than
// dying at the first unknown-parameter error.
var fuzzParams = map[string]int{"N": 20, "M": 12, "TSTEPS": 3}

// FuzzParse feeds mutated stencil listings through both entry points.
// The property under test is "no panic, and accepted programs are
// well-formed enough for the downstream analyses not to panic either":
// Parse errors are fine (most mutations are garbage), crashes are not.
func FuzzParse(f *testing.F) {
	seeds := []string{
		figure3,  // paper Figure 3 (JACOBI)
		figure13, // paper Figure 13 (RESID)
		// 2D Jacobi (Figure 1 shape).
		"do J=2,M-1\n do I=2,M-1\n  A(I,J) = C*(B(I-1,J)+B(I+1,J)+B(I,J-1)+B(I,J+1))",
		// Time loop around two nests (Figure 5, middle).
		"do T=1,TSTEPS\n do K=2,N-1\n  do J=2,N-1\n   do I=2,N-1\n    A(I,J,K)=C*(B(I-1,J,K)+B(I+1,J,K))\n do K=2,N-1\n  do J=2,N-1\n   do I=2,N-1\n    B(I,J,K)=A(I,J,K)",
		// Step clause, bare bounds, absolute subscript, comments.
		"do K=1,N\n do J=2,N-1\n  do I=2,N-1,2\n   A(I,J,K) = B(I,J,K)",
		"do I=2,9\n A(I,3) = B(I,1) ! boundary row\n",
		// Mutated listings: the malformed shapes regressions grow from.
		"do I=2,N-1\n A(I)=B(I)+",
		"do I=2,9\n A(I)=C*(B(I)",
		"do I=2,9\n do I=2,9\n  A(I)=B(I)",
		"do I=9,2,0\n A(I)=B(I)",
		"do\nI=1,2\nA(I)=B(I)",
		"do I=1,99999999999999999999\n A(I)=B(I)",
		"A(I)=B(I)",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Cap pathological inputs: a million-deep nest is legal but only
		// stresses the stack, not the grammar.
		if len(src) > 1<<16 {
			return
		}
		if nest, err := ParseNamed("", src, fuzzParams); err == nil {
			exerciseNest(nest)
		}
		if prog, err := ParseProgramNamed("fuzz.st", src, fuzzParams); err == nil {
			for _, nest := range prog.Nests {
				exerciseNest(nest)
			}
		}
	})
}

// exerciseNest runs the analyses a accepted parse feeds into: rendering,
// grouping, and dependence extraction must not panic on any nest the
// parser accepts.
func exerciseNest(nest *ir.Nest) {
	_ = nest.String()
	_, _ = ir.Groups(nest)
	_ = nest.Clone()
}

// TestParseRegressions pins inputs the fuzzer (and hand-mutation of the
// listings) surfaced as interesting: all must error cleanly, and the
// overflow guard must reject literals that no longer fit in int32.
func TestParseRegressions(t *testing.T) {
	cases := []struct{ name, src string }{
		{"huge literal", "do I=1,99999999999999999999\n A(I)=B(I)"},
		{"huge subscript offset", "do I=2,9\n A(I+99999999999999999999)=B(I)"},
		{"lone do", "do"},
		{"do without ident", "do =1,2\n A(I)=B(I)"},
		{"assign without rhs term", "do I=2,9\n A(I)="},
		{"nested unclosed refsum", "do I=2,9\n A(I)=C*(B(I)+"},
		{"time loop no nests", "do T=1,TSTEPS"},
		{"star without coeff group", "do I=2,9\n A(I)=C*B(I)"},
	}
	for _, c := range cases {
		if _, err := ParseNamed("", c.src, fuzzParams); err == nil {
			t.Errorf("%s: Parse accepted %q", c.name, c.src)
		}
		if _, err := ParseProgram(c.src, fuzzParams); err == nil {
			t.Errorf("%s: ParseProgram accepted %q", c.name, c.src)
		}
	}
}

// TestErrorPositions asserts the file:line:col satellite contract:
// named parses prefix the file name, and the position points into the
// offending line.
func TestErrorPositions(t *testing.T) {
	src := "do I=2,9\n A(J) = B(I)"
	_, err := ParseNamed("bad.st", src, nil)
	if err == nil {
		t.Fatal("free subscript accepted")
	}
	if !strings.Contains(err.Error(), "bad.st:2:4") {
		t.Errorf("error lacks file:line:col: %v", err)
	}
	_, err = ParseNamed("", "do I=2,Q\n A(I)=B(I)", nil)
	if err == nil || !strings.Contains(err.Error(), "1:8") {
		t.Errorf("unknown-parameter error lacks line:col: %v", err)
	}
}

// TestParsedRefsCarryPositions checks the parser stamps every reference
// with its source coordinates, which stencilvet's warnings rely on.
func TestParsedRefsCarryPositions(t *testing.T) {
	nest, err := ParseNamed("fig.st", figure3, map[string]int{"N": 12})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range nest.Body {
		if !r.Pos.IsValid() {
			t.Errorf("body[%d] %s has no position", i, r.Array)
		}
	}
	// The store A(I,J,K) sits on line 5 of figure3 (leading newline).
	store := nest.Body[len(nest.Body)-1]
	if !store.Store || store.Pos.Line != 5 {
		t.Errorf("store position = %+v", store.Pos)
	}
}

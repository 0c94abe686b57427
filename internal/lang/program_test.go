package lang

import (
	"strings"
	"testing"
)

const realistic = `
do T = 1, 100
  do K=2,N-1
    do J=2,N-1
      do I=2,N-1
        A(I,J,K) = C*(B(I-1,J,K)+B(I+1,J,K)+B(I,J-1,K)+B(I,J+1,K)+B(I,J,K-1)+B(I,J,K+1))
  do K=2,N-1
    do J=2,N-1
      do I=2,N-1
        B(I,J,K) = A(I,J,K)
`

func TestParseProgramRealistic(t *testing.T) {
	prog, err := ParseProgram(realistic, map[string]int{"N": 30})
	if err != nil {
		t.Fatal(err)
	}
	if prog.TimeVar != "T" || prog.Steps != 100 {
		t.Errorf("time loop = %q/%d, want T/100", prog.TimeVar, prog.Steps)
	}
	if len(prog.Nests) != 2 {
		t.Fatalf("got %d nests, want 2", len(prog.Nests))
	}
	if !strings.Contains(prog.Nests[0].String(), "store A(I,J,K)") {
		t.Errorf("first nest:\n%s", prog.Nests[0])
	}
	if !strings.Contains(prog.Nests[1].String(), "store B(I,J,K)") {
		t.Errorf("second nest:\n%s", prog.Nests[1])
	}
}

func TestParseProgramBareNest(t *testing.T) {
	prog, err := ParseProgram(figure3, map[string]int{"N": 25})
	if err != nil {
		t.Fatal(err)
	}
	if prog.TimeVar != "" || len(prog.Nests) != 1 {
		t.Fatalf("bare nest parsed as %+v", prog)
	}
	// The outer K loop must be folded back into the single nest.
	if len(prog.Nests[0].Loops) != 3 {
		t.Errorf("nest has %d loops, want 3:\n%s", len(prog.Nests[0].Loops), prog.Nests[0])
	}
	want, err := ParseNamed("", figure3, map[string]int{"N": 25})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Nests[0].String() != want.String() {
		t.Errorf("program parse differs from nest parse:\n%s\nvs\n%s", prog.Nests[0], want)
	}
}

func TestParseProgramMultipleNestsSpatialOuter(t *testing.T) {
	// An outer variable that indexes arrays but encloses two nests is an
	// error (no valid reading).
	src := `
do K=2,N-1
  do I=2,N-1
    A(I,K) = B(I,K)
  do I=2,N-1
    B(I,K) = A(I,K)
`
	if _, err := ParseProgram(src, map[string]int{"N": 10}); err == nil {
		t.Error("spatial outer over two nests not rejected")
	}
}

func TestParseProgramTrailingGarbage(t *testing.T) {
	if _, err := ParseProgram(realistic+"\nextra", map[string]int{"N": 10}); err == nil {
		t.Error("trailing input not rejected")
	}
}

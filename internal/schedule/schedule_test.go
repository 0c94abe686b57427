package schedule

import (
	"strings"
	"testing"

	"tiling3d/internal/deps"
	"tiling3d/internal/ir"
)

func mustTable(t *testing.T, n *ir.Nest) *deps.Table {
	t.Helper()
	tab, err := deps.Dependences(n)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestDeriveBatchForIndependentTiles: Jacobi writes A and reads B, so
// its (J, I) tiles carry no cross-tile dependences and the derived
// schedule is a batch.
func TestDeriveBatchForIndependentTiles(t *testing.T) {
	tab := mustTable(t, ir.JacobiNestDims(20, 20, 10))
	s, err := Derive(tab, TileMap{Dims: []Dim{
		{Loop: "J", Size: 4, Count: 5},
		{Loop: "I", Size: 4, Count: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != Batch {
		t.Fatalf("kind = %v, want batch (schedule: %v)", s.Kind, s)
	}
	if !s.certified {
		t.Fatal("derived schedule not certified")
	}
}

// TestDeriveRedBlackWavefront: the fused red-black nest's in-place
// dependences force a (1,1) wavefront over (J, I) tiles.
func TestDeriveRedBlackWavefront(t *testing.T) {
	tab := mustTable(t, ir.RedBlackFusedNest(20, 20, 10))
	s, err := Derive(tab, TileMap{Dims: []Dim{
		{Loop: "J", Size: 4, Count: 5},
		{Loop: "I", Size: 4, Count: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != Wavefront {
		t.Fatalf("kind = %v, want wavefront (schedule: %v)", s.Kind, s)
	}
	if len(s.Lambda) != 2 || s.Lambda[0] != 1 || s.Lambda[1] != 1 {
		t.Fatalf("lambda = %v, want (1,1)", s.Lambda)
	}
}

// TestDeriveDegenerateTiles: 1x1 tiles turn every element dependence
// into a tile dependence; the wavefront must still derive and certify.
func TestDeriveDegenerateTiles(t *testing.T) {
	tab := mustTable(t, ir.RedBlackFusedNest(12, 12, 8))
	s, err := Derive(tab, TileMap{Dims: []Dim{
		{Loop: "J", Size: 1, Count: 11},
		{Loop: "I", Size: 1, Count: 11},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != Wavefront {
		t.Fatalf("kind = %v, want wavefront", s.Kind)
	}
}

// TestDeriveTimePipelineDiamond: the time-skewed pipeline's flow cone
// plus the ring-buffer reuse edges force the diamond λ=(3,2).
func TestDeriveTimePipelineDiamond(t *testing.T) {
	steps, planes := 5, 20
	tab := mustTable(t, ir.TimePipelineNest(steps, planes))
	ring := []Edge{
		{Lo: []int{-1, 2}, Hi: []int{-1, 4}, Origin: "ring reuse: plane slot q mod 3 rewritten at q+3"},
		{Lo: []int{0, 3}, Hi: []int{0, 3}, Origin: "ring reuse: same stage rewrites slot q mod 3 at q+3"},
	}
	s, err := Derive(tab, TileMap{Dims: []Dim{
		{Loop: "T", Size: 1, Count: steps},
		{Loop: "K", Size: 1, Count: planes},
	}}, ring...)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != Diamond {
		t.Fatalf("kind = %v, want diamond (schedule: %v)", s.Kind, s)
	}
	if len(s.Lambda) != 2 || s.Lambda[0] != 3 || s.Lambda[1] != 2 {
		t.Fatalf("lambda = %v, want (3,2)", s.Lambda)
	}
}

// TestDeriveBoxMapping pins the element-distance → tile-delta interval:
// distance 3 under tile size 2 spans tiles +1..+2.
func TestDeriveBoxMapping(t *testing.T) {
	nest := &ir.Nest{
		Loops: []ir.Loop{ir.SimpleLoop("I", 0, 19)},
		Body: []ir.Ref{
			ir.StoreRef("A", ir.Var("I", 0)),
			ir.Load("A", ir.Var("I", -3)),
		},
	}
	tab := mustTable(t, nest)
	s, err := Derive(tab, TileMap{Dims: []Dim{{Loop: "I", Size: 2, Count: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Edges) != 1 || s.Edges[0].Lo[0] != 1 || s.Edges[0].Hi[0] != 2 {
		t.Fatalf("edges = %v, want one box (1..2)", s.Edges)
	}
	if s.Kind != Wavefront || s.Lambda[0] != 1 {
		t.Fatalf("schedule = %v, want wavefront λ=(1)", s)
	}
}

// TestDeriveRefusesUnknown: a table with an Unknown dependence cannot
// be scheduled at all.
func TestDeriveRefusesUnknown(t *testing.T) {
	nest := &ir.Nest{
		Loops: []ir.Loop{ir.SimpleLoop("I", 1, 10), ir.SimpleLoop("J", 1, 10)},
		Body: []ir.Ref{
			ir.StoreRef("A", ir.Var("I", 0), ir.Var("J", 0)),
			ir.Load("A", ir.Var("J", 0), ir.Var("I", 0)), // transposed: not a constant distance
		},
	}
	tab := mustTable(t, nest)
	_, err := Derive(tab, TileMap{Dims: []Dim{{Loop: "I", Size: 2, Count: 5}}})
	if err == nil || !strings.Contains(err.Error(), "cannot schedule") {
		t.Fatalf("err = %v, want refusal on Unknown dependence", err)
	}
}

// TestDeriveRefusesBackwardEdge: a dependence pointing backwards in
// every scheduled dimension admits no wavefront; the refusal names its
// delta.
func TestDeriveRefusesBackwardEdge(t *testing.T) {
	tab := mustTable(t, ir.JacobiNestDims(20, 20, 10))
	_, err := Derive(tab, TileMap{Dims: []Dim{
		{Loop: "J", Size: 4, Count: 5},
		{Loop: "I", Size: 4, Count: 5},
	}}, Edge{Lo: []int{0, -1}, Hi: []int{0, -1}, Origin: "test backward edge"})
	if err == nil {
		t.Fatal("backward edge was scheduled")
	}
	if !strings.Contains(err.Error(), "(0,-1)") || !strings.Contains(err.Error(), "test backward edge") {
		t.Fatalf("refusal %q does not name the violating delta (0,-1)", err)
	}
}

// TestCertifyRefusesIllegalSchedule feeds the certifier an illegally-
// aggressive schedule — a Batch claiming tiles with a (1,0) dependence
// between them may all run in one step — and asserts the refusal names
// the violating distance vector and the offending tiles.
func TestCertifyRefusesIllegalSchedule(t *testing.T) {
	s := &Schedule{
		Kind: Batch,
		Dims: []Dim{{Loop: "J", Size: 4, Count: 3}, {Loop: "I", Size: 4, Count: 3}},
		Edges: []Edge{{
			Lo: []int{1, 0}, Hi: []int{1, 0},
			Origin: "flow A distance (0,1,0) (#7 -> #8)",
		}},
	}
	err := s.Certify()
	if err == nil {
		t.Fatal("illegal batch certified")
	}
	v, ok := err.(*Violation)
	if !ok {
		t.Fatalf("err = %T (%v), want *Violation", err, err)
	}
	if v.Delta[0] != 1 || v.Delta[1] != 0 {
		t.Fatalf("violation delta = %v, want (1,0)", v.Delta)
	}
	if !strings.Contains(err.Error(), "(1,0)") || !strings.Contains(err.Error(), "flow A distance (0,1,0)") {
		t.Fatalf("refusal %q does not name the distance vector and origin", err)
	}
	if s.certified {
		t.Fatal("schedule marked certified after refusal")
	}
	// Execute must refuse to run it.
	if err := s.Execute(4, func([]int) {}); err == nil {
		t.Fatal("Execute ran an uncertifiable schedule")
	}

	// An under-ordered wavefront is refused the same way: λ=(1,0)
	// leaves the (0,1) component of the diagonal edge unordered.
	s2 := &Schedule{
		Kind:   Wavefront,
		Dims:   []Dim{{Loop: "J", Size: 4, Count: 3}, {Loop: "I", Size: 4, Count: 3}},
		Lambda: []int{1, 0},
		Edges:  []Edge{{Lo: []int{0, 1}, Hi: []int{1, 1}, Origin: "anti A distance (0,0,1) (#2 -> #8)"}},
	}
	err = s2.Certify()
	if err == nil {
		t.Fatal("under-ordered wavefront certified")
	}
	if v, ok := err.(*Violation); !ok || v.Delta[0] != 0 || v.Delta[1] != 1 {
		t.Fatalf("err = %v, want violation at delta (0,1)", err)
	}
}

// TestStepAssignments pins Step for each kind.
func TestStepAssignments(t *testing.T) {
	dims := []Dim{{Loop: "J", Size: 1, Count: 4}, {Loop: "I", Size: 1, Count: 5}}
	w := &Schedule{Kind: Wavefront, Dims: dims, Lambda: []int{2, 1}}
	if got := w.Step([]int{3, 4}); got != 10 {
		t.Errorf("wavefront step = %d, want 10", got)
	}
	b := &Schedule{Kind: Batch, Dims: dims}
	if got := b.Step([]int{3, 4}); got != 0 {
		t.Errorf("batch step = %d, want 0", got)
	}
	ser := &Schedule{Kind: Serial, Dims: dims}
	if got := ser.Step([]int{3, 4}); got != 19 {
		t.Errorf("serial step = %d, want 19", got)
	}
}

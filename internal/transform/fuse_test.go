package transform

import (
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/grid"
	"tiling3d/internal/ir"
	"tiling3d/internal/trace"
)

func parserParse(src string) (interface{}, error) {
	return parser.ParseFile(token.NewFileSet(), "fused.go", src, 0)
}

// copyBackNest builds the second nest of the "realistic stencil code"
// pattern (Figure 5, middle): B(i,j,k) = A(i,j,k).
func copyBackNest(n, depth int) *ir.Nest {
	i, j, k := ir.Var("I", 0), ir.Var("J", 0), ir.Var("K", 0)
	nest := &ir.Nest{
		Loops: []ir.Loop{
			ir.SimpleLoop("K", 1, depth-2),
			ir.SimpleLoop("J", 1, n-2),
			ir.SimpleLoop("I", 1, n-2),
		},
	}
	nest.SetCompute(ir.Assign{
		LHS:   ir.Ref{Array: "B", Subs: []ir.Expr{i, j, k}},
		Terms: []ir.Term{{Coeff: "ONE", Refs: []ir.Ref{ir.Load("A", i, j, k)}}},
	})
	return nest
}

func TestMinLegalShiftCopyBack(t *testing.T) {
	n1 := ir.JacobiNest(12, 10)
	n2 := copyBackNest(12, 10)
	// n1 reads B at K-1 while n2 writes B at K: the copy-back must lag
	// one plane behind the compute.
	s, err := MinLegalShift(n1, n2)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1 {
		t.Errorf("MinLegalShift = %d, want 1", s)
	}
	if _, err := FuseShifted(n1, n2, 0); err == nil {
		t.Error("shift 0 accepted despite B anti-dependence")
	}
	if _, err := FuseShifted(n1, n2, 1); err != nil {
		t.Errorf("legal shift rejected: %v", err)
	}
}

// TestFusedInterpretMatchesSequential checks value semantics: the fused
// compute+copy-back schedule produces exactly the sequential result.
func TestFusedInterpretMatchesSequential(t *testing.T) {
	n, depth := 10, 9
	mk := func() map[string]*grid.Grid3D {
		a := grid.New3D(n, n, depth)
		b := grid.New3D(n, n, depth)
		b.FillFunc(func(i, j, k int) float64 { return float64(i+1)*0.5 - float64(j) + float64(k*k)*0.25 })
		a.FillFunc(func(i, j, k int) float64 { return -float64(i + j + k) })
		return map[string]*grid.Grid3D{"A": a, "B": b}
	}
	consts := map[string]float64{"C": 1.0 / 6, "ONE": 1}
	n1 := ir.JacobiNest(n, depth)
	n2 := copyBackNest(n, depth)

	seq := mk()
	if err := ir.Interpret(n1, seq, consts); err != nil {
		t.Fatal(err)
	}
	if err := ir.Interpret(n2, seq, consts); err != nil {
		t.Fatal(err)
	}

	fused, err := FuseShifted(n1, n2, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := mk()
	if err := fused.interpret(got, consts); err != nil {
		t.Fatal(err)
	}
	if d := seq["B"].MaxAbsDiff(got["B"]); d != 0 {
		t.Errorf("fused B differs from sequential by %g", d)
	}
	if d := seq["A"].MaxAbsDiff(got["A"]); d != 0 {
		t.Errorf("fused A differs from sequential by %g", d)
	}
	// Over-shifting stays legal and equal.
	fused3, err := FuseShifted(n1, n2, 3)
	if err != nil {
		t.Fatal(err)
	}
	got3 := mk()
	if err := fused3.interpret(got3, consts); err != nil {
		t.Fatal(err)
	}
	if d := seq["B"].MaxAbsDiff(got3["B"]); d != 0 {
		t.Errorf("shift-3 fused differs by %g", d)
	}
}

// TestFusedTraceIsPermutation checks the fused address stream is exactly
// the sequential streams reordered.
func TestFusedTraceIsPermutation(t *testing.T) {
	n, depth := 9, 8
	arena := grid.NewArena()
	a := arena.Place(grid.New3D(n, n, depth))
	b := arena.Place(grid.New3D(n, n, depth))
	env := map[string]trace.Binding{"A": trace.Bind3D(a), "B": trace.Bind3D(b)}
	n1 := ir.JacobiNest(n, depth)
	n2 := copyBackNest(n, depth)

	var seq cache.Recorder
	if err := trace.Run(n1, env, &seq); err != nil {
		t.Fatal(err)
	}
	if err := trace.Run(n2, env, &seq); err != nil {
		t.Fatal(err)
	}
	fused, err := FuseShifted(n1, n2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got cache.Recorder
	if err := fused.replay(env, &got); err != nil {
		t.Fatal(err)
	}
	if len(seq.Ops) != len(got.Ops) {
		t.Fatalf("op counts: sequential %d, fused %d", len(seq.Ops), len(got.Ops))
	}
	sortOps := func(ops []cache.Op) {
		sort.Slice(ops, func(i, j int) bool {
			if ops[i].Addr != ops[j].Addr {
				return ops[i].Addr < ops[j].Addr
			}
			return !ops[i].IsStore && ops[j].IsStore
		})
	}
	sortOps(seq.Ops)
	sortOps(got.Ops)
	for i := range seq.Ops {
		if seq.Ops[i] != got.Ops[i] {
			t.Fatalf("op multiset differs at %d", i)
		}
	}
}

// TestFusedGenGo renders the fused compute+copy-back pair and checks
// structure and validity.
func TestFusedGenGo(t *testing.T) {
	n1 := ir.JacobiNest(20, 12)
	n2 := copyBackNest(20, 12)
	fused, err := FuseShifted(n1, n2, 1)
	if err != nil {
		t.Fatal(err)
	}
	src, err := fused.GenGo("fusedStep")
	if err != nil {
		t.Fatal(err)
	}
	full := "package p\n\n" + src
	if _, err := parserParse(full); err != nil {
		t.Fatalf("fused source does not parse: %v\n%s", err, src)
	}
	for _, want := range []string{
		"for K := 1; K <= 11; K++",
		"if K >= 1 && K <= 10 {",
		"if K >= 2 && K <= 11 {",
		"KF := K - 1",
		"b[(I)+bDI*((J)+bDJ*(KF))] = one * (a[(I)+aDI*((J)+aDJ*(KF))])",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("fused source missing %q:\n%s", want, src)
		}
	}
}

func TestRenameVar(t *testing.T) {
	n := ir.JacobiNest(10, 10)
	if err := n.RenameVar("K", "KK2"); err != nil {
		t.Fatal(err)
	}
	s := n.String()
	if !strings.Contains(s, "do KK2 = 1, 8") || strings.Contains(s, "(I,J,K)") {
		t.Errorf("rename incomplete:\n%s", s)
	}
	if err := n.RenameVar("X", "Y"); err == nil {
		t.Error("renaming a missing loop not rejected")
	}
	if err := n.RenameVar("I", "J"); err == nil {
		t.Error("renaming onto an existing loop not rejected")
	}
}

// TestFusionPreservesReuse is the point of the transformation: the
// sequential compute+copy pair streams the arrays twice per time step,
// the fused schedule touches each plane while it is still resident. The
// fused L1 miss rate must be well below the sequential one.
func TestFusionPreservesReuse(t *testing.T) {
	n, depth := 64, 20
	arena := grid.NewArena()
	a := arena.Place(grid.New3D(n, n, depth))
	b := arena.Place(grid.New3D(n, n, depth))
	env := map[string]trace.Binding{"A": trace.Bind3D(a), "B": trace.Bind3D(b)}
	n1 := ir.JacobiNest(n, depth)
	n2 := copyBackNest(n, depth)

	missRate := func(replay func(mem cache.Memory) error) float64 {
		h := cache.MustHierarchy(cache.Config{SizeBytes: 256 << 10, LineBytes: 32, Assoc: 1, WriteAllocate: true})
		if err := replay(h); err != nil {
			t.Fatal(err)
		}
		h.ResetStats()
		if err := replay(h); err != nil {
			t.Fatal(err)
		}
		return h.Level(0).Stats().MissRate()
	}
	seqRate := missRate(func(mem cache.Memory) error {
		if err := trace.Run(n1, env, mem); err != nil {
			return err
		}
		return trace.Run(n2, env, mem)
	})
	fused, err := FuseShifted(n1, n2, 1)
	if err != nil {
		t.Fatal(err)
	}
	fusedRate := missRate(func(mem cache.Memory) error { return fused.replay(env, mem) })
	if fusedRate >= seqRate*0.8 {
		t.Errorf("fusion did not preserve reuse: sequential %.2f%%, fused %.2f%%", seqRate, fusedRate)
	}
}

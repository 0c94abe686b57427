package trace_test

// Cross-validation: the per-access reference walker (trace.Run) over
// nests produced by the transformation engine must emit exactly the
// address stream the kernels in internal/stencil replay through the
// batched emitter, access for access. This proves the transformation
// engine implements the paper's tiling (Figure 6 / Figure 13) and that
// the strength-reduced batched emitter reproduces the reference order.

import (
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/ir"
	"tiling3d/internal/stencil"
	"tiling3d/internal/trace"
	"tiling3d/internal/transform"
)

func opsEqual(t *testing.T, label string, want, got []cache.Op) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d ops from the kernel, %d from the IR walker", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: op %d differs: kernel %+v, IR %+v", label, i, want[i], got[i])
		}
	}
}

func TestIRMatchesJacobiOrig(t *testing.T) {
	n, depth := 14, 7
	arena := grid.NewArena()
	a := arena.Place(grid.New3D(n, n, depth))
	b := arena.Place(grid.New3D(n, n, depth))
	var ref cache.Recorder
	stencil.Replay(stencil.Jacobi, core.Plan{}, []*grid.Grid3D{a, b}, cache.PerAccess{Mem: &ref})

	nest := ir.JacobiNest(n, depth)
	var got cache.Recorder
	env := map[string]trace.Binding{"A": trace.Bind3D(a), "B": trace.Bind3D(b)}
	if err := trace.Run(nest, env, &got); err != nil {
		t.Fatal(err)
	}
	opsEqual(t, "jacobi orig", ref.Ops, got.Ops)
}

func TestIRMatchesJacobiTiled(t *testing.T) {
	n, depth := 17, 8
	var ref, got cache.Recorder
	for _, tile := range []core.Tile{{TI: 4, TJ: 5}, {TI: 1, TJ: 1}, {TI: 30, TJ: 3}} {
		arena := grid.NewArena()
		a := arena.Place(grid.Must3DPadded(n, n, depth, n+3, n+1))
		b := arena.Place(grid.Must3DPadded(n, n, depth, n+3, n+1))
		ref.Ops = ref.Ops[:0]
		stencil.Replay(stencil.Jacobi, core.Plan{Tile: tile, Tiled: true}, []*grid.Grid3D{a, b}, cache.PerAccess{Mem: &ref})

		nest, err := transform.TileInner2(ir.JacobiNest(n, depth), tile)
		if err != nil {
			t.Fatal(err)
		}
		got.Ops = got.Ops[:0]
		env := map[string]trace.Binding{"A": trace.Bind3D(a), "B": trace.Bind3D(b)}
		if err := trace.Run(nest, env, &got); err != nil {
			t.Fatal(err)
		}
		opsEqual(t, tile.String(), ref.Ops, got.Ops)
	}
}

// TestIRBatchedMatchesKernelBatched drives the batched IR walker over the
// transformation engine's nest and the kernel's own batched stream and
// requires the expanded streams to agree op for op. Recorders are reused
// across cases via Reset.
func TestIRBatchedMatchesKernelBatched(t *testing.T) {
	n, depth := 17, 8
	var ref, got cache.Recorder
	var rec cache.RunRecorder
	for _, tile := range []core.Tile{{TI: 4, TJ: 5}, {TI: 1, TJ: 1}, {TI: 30, TJ: 3}} {
		arena := grid.NewArena()
		a := arena.Place(grid.Must3DPadded(n, n, depth, n+3, n+1))
		b := arena.Place(grid.Must3DPadded(n, n, depth, n+3, n+1))
		ref.Ops = ref.Ops[:0]
		stencil.Replay(stencil.Jacobi, core.Plan{Tile: tile, Tiled: true}, []*grid.Grid3D{a, b}, &ref)

		nest, err := transform.TileInner2(ir.JacobiNest(n, depth), tile)
		if err != nil {
			t.Fatal(err)
		}
		got.Ops = got.Ops[:0]
		rec.Reset()
		env := map[string]trace.Binding{"A": trace.Bind3D(a), "B": trace.Bind3D(b)}
		if err := trace.RunBatchedNest(nest, env, &rec); err != nil {
			t.Fatal(err)
		}
		cache.ExpandRuns(rec.Runs, &got)
		opsEqual(t, "batched "+tile.String(), ref.Ops, got.Ops)
	}
}

// TestIRBatchedMatchesResid covers the 29-reference Resid body, whose
// batched groups are the widest the kernels emit.
func TestIRBatchedMatchesResid(t *testing.T) {
	n, depth := 13, 9
	tile := core.Tile{TI: 5, TJ: 4}
	arena := grid.NewArena()
	r := arena.Place(grid.Must3DPadded(n, n, depth, n+7, n))
	v := arena.Place(grid.Must3DPadded(n, n, depth, n+7, n))
	u := arena.Place(grid.Must3DPadded(n, n, depth, n+7, n))
	var ref cache.Recorder
	stencil.Replay(stencil.Resid, core.Plan{Tile: tile, Tiled: true}, []*grid.Grid3D{r, v, u}, &ref)

	nest, err := transform.ApplyPlan(ir.ResidNest(n, depth), core.Plan{Tile: tile, Tiled: true})
	if err != nil {
		t.Fatal(err)
	}
	var got cache.Recorder
	env := map[string]trace.Binding{"R": trace.Bind3D(r), "V": trace.Bind3D(v), "U": trace.Bind3D(u)}
	if err := trace.RunBatchedNest(nest, env, &got); err != nil {
		t.Fatal(err)
	}
	opsEqual(t, "resid batched", ref.Ops, got.Ops)
}

func TestIRMatchesResidTiled(t *testing.T) {
	n, depth := 13, 9
	tile := core.Tile{TI: 5, TJ: 4}
	arena := grid.NewArena()
	r := arena.Place(grid.Must3DPadded(n, n, depth, n+7, n))
	v := arena.Place(grid.Must3DPadded(n, n, depth, n+7, n))
	u := arena.Place(grid.Must3DPadded(n, n, depth, n+7, n))
	var ref cache.Recorder
	stencil.Replay(stencil.Resid, core.Plan{Tile: tile, Tiled: true}, []*grid.Grid3D{r, v, u}, cache.PerAccess{Mem: &ref})

	nest, err := transform.ApplyPlan(ir.ResidNest(n, depth), core.Plan{Tile: tile, Tiled: true})
	if err != nil {
		t.Fatal(err)
	}
	var got cache.Recorder
	env := map[string]trace.Binding{"R": trace.Bind3D(r), "V": trace.Bind3D(v), "U": trace.Bind3D(u)}
	if err := trace.Run(nest, env, &got); err != nil {
		t.Fatal(err)
	}
	opsEqual(t, "resid tiled", ref.Ops, got.Ops)
}

func TestIRMatchesJacobi2D(t *testing.T) {
	n := 20
	arena := grid.NewArena()
	a := arena.Place2D(grid.New2D(n, n))
	b := arena.Place2D(grid.New2D(n, n))
	var ref cache.Recorder
	stencil.ReplayJacobi2D(a, b, 0, cache.PerAccess{Mem: &ref})
	var got cache.Recorder
	env := map[string]trace.Binding{"A": trace.Bind2D(a), "B": trace.Bind2D(b)}
	if err := trace.Run(ir.Jacobi2DNest(n), env, &got); err != nil {
		t.Fatal(err)
	}
	opsEqual(t, "jacobi 2d", ref.Ops, got.Ops)
}

func TestCompileErrors(t *testing.T) {
	nest := ir.JacobiNest(8, 8)
	if err := trace.Run(nest, map[string]trace.Binding{"A": {Strides: []int64{1, 8, 64}}}, &cache.NullMemory{}); err == nil {
		t.Error("missing binding for B not reported")
	}
	if err := trace.Run(nest, map[string]trace.Binding{
		"A": {Strides: []int64{1, 8}},
		"B": {Strides: []int64{1, 8, 64}},
	}, &cache.NullMemory{}); err == nil {
		t.Error("dimension mismatch not reported")
	}
}

func TestProgramReusable(t *testing.T) {
	nest := ir.JacobiNest(10, 6)
	g := grid.New3D(10, 10, 6)
	env := map[string]trace.Binding{"A": trace.Bind3D(g), "B": trace.Bind3D(g)}
	p, err := trace.Compile(nest, env)
	if err != nil {
		t.Fatal(err)
	}
	var m1, m2 cache.NullMemory
	p.Run(&m1)
	p.Run(&m2)
	if m1.LoadCount != m2.LoadCount || m1.LoadCount == 0 {
		t.Errorf("re-run differs: %d vs %d loads", m1.LoadCount, m2.LoadCount)
	}
}

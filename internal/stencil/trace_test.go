package stencil

import (
	"sort"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
)

// TestTraceAccessCounts checks every kernel's stream issues exactly the
// predicted number of loads and stores.
func TestTraceAccessCounts(t *testing.T) {
	for _, k := range Kernels() {
		for _, m := range []core.Method{core.Orig, core.MethodGcdPad} {
			plan := core.Select(m, 256, 20, 20, k.Spec())
			w := NewWorkload(k, 20, 7, plan, DefaultCoeffs())
			var mem cache.NullMemory
			w.RunTrace(&mem)
			wantStores := uint64(w.InteriorPoints())
			wantLoads := uint64(w.AccessCount()) - wantStores
			if mem.StoreCount != wantStores {
				t.Errorf("%v/%v: %d stores, want %d", k, m, mem.StoreCount, wantStores)
			}
			if mem.LoadCount != wantLoads {
				t.Errorf("%v/%v: %d loads, want %d", k, m, mem.LoadCount, wantLoads)
			}
		}
	}
}

func sortedOps(ops []cache.Op) []cache.Op {
	s := append([]cache.Op(nil), ops...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Addr != s[j].Addr {
			return s[i].Addr < s[j].Addr
		}
		return !s[i].IsStore && s[j].IsStore
	})
	return s
}

// TestTiledTraceIsPermutation checks that tiling only reorders the address
// stream: the multiset of (address, kind) pairs matches the original
// nest's exactly.
func TestTiledTraceIsPermutation(t *testing.T) {
	for _, k := range Kernels() {
		spec := k.Spec()
		plan := core.Plan{Tile: core.Tile{TI: 5, TJ: 7}, DI: 22, DJ: 22, Tiled: true}
		orig := core.Plan{DI: 22, DJ: 22}
		wOrig := NewWorkload(k, 22, 8, orig, DefaultCoeffs())
		wTiled := NewWorkload(k, 22, 8, plan, DefaultCoeffs())
		var rOrig, rTiled cache.Recorder
		wOrig.RunTrace(&rOrig)
		wTiled.RunTrace(&rTiled)
		a, b := sortedOps(rOrig.Ops), sortedOps(rTiled.Ops)
		if len(a) != len(b) {
			t.Fatalf("%v: orig %d ops, tiled %d ops", k, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: op multiset differs at %d: %+v vs %+v (spec %+v)", k, i, a[i], b[i], spec)
			}
		}
	}
}

// TestTraceMatchesNativeJacobi cross-checks the Jacobi stream against the
// native kernel: replaying the recorded stores and marking them in a
// shadow grid must mark exactly the interior, and the loads must all fall
// inside B.
func TestTraceMatchesNativeJacobi(t *testing.T) {
	n, k := 12, 6
	arena := grid.NewArena()
	a := arena.Place(grid.New3D(n, n, k))
	b := arena.Place(grid.New3D(n, n, k))
	var rec cache.Recorder
	Replay(Jacobi, core.Plan{}, []*grid.Grid3D{a, b}, cache.PerAccess{Mem: &rec})

	aLo, aHi := a.Base()*grid.ElemSize, (a.Base()+int64(a.Elems()))*grid.ElemSize
	bLo, bHi := b.Base()*grid.ElemSize, (b.Base()+int64(b.Elems()))*grid.ElemSize
	stored := map[int64]int{}
	for _, op := range rec.Ops {
		if op.IsStore {
			if op.Addr < aLo || op.Addr >= aHi {
				t.Fatalf("store outside A: %d", op.Addr)
			}
			stored[op.Addr]++
		} else if op.Addr < bLo || op.Addr >= bHi {
			t.Fatalf("load outside B: %d", op.Addr)
		}
	}
	// Every interior element of A stored exactly once.
	count := 0
	for kk := 1; kk <= k-2; kk++ {
		for j := 1; j <= n-2; j++ {
			for i := 1; i <= n-2; i++ {
				addr := a.Addr(i, j, kk) * grid.ElemSize
				if stored[addr] != 1 {
					t.Fatalf("interior (%d,%d,%d) stored %d times", i, j, kk, stored[addr])
				}
				count++
			}
		}
	}
	if count != len(stored) {
		t.Errorf("stores outside the interior: %d stored, %d interior", len(stored), count)
	}
}

// TestRedBlackTraceColors checks every red-black stream, naive and tiled
// with odd and even tile sides, stores each interior point exactly once
// per sweep and nothing else: the naive nest's two color passes and the
// tiled nest's skewed passes partition the interior.
func TestRedBlackTraceColors(t *testing.T) {
	n, k := 11, 7
	plans := []core.Plan{{DI: n, DJ: n}}
	for _, tile := range []core.Tile{{TI: 1, TJ: 1}, {TI: 2, TJ: 2}, {TI: 3, TJ: 4}, {TI: 4, TJ: 3}, {TI: 5, TJ: 5}, {TI: 2, TJ: 7}, {TI: 30, TJ: 30}} {
		plans = append(plans, core.Plan{Tile: tile, DI: n + 1, DJ: n, Tiled: true})
	}
	for _, plan := range plans {
		w := NewTraceWorkload(RedBlack, n, k, plan)
		var rec cache.Recorder
		w.RunTrace(&rec)
		stores := map[int64]int{}
		for _, op := range rec.Ops {
			if op.IsStore {
				stores[op.Addr]++
			}
		}
		a := w.Grids[0]
		for kk := 1; kk <= k-2; kk++ {
			for j := 1; j <= n-2; j++ {
				for i := 1; i <= n-2; i++ {
					addr := a.Addr(i, j, kk) * grid.ElemSize
					if stores[addr] != 1 {
						t.Fatalf("plan %+v: interior (%d,%d,%d) stored %d times", plan, i, j, kk, stores[addr])
					}
					delete(stores, addr)
				}
			}
		}
		if len(stores) != 0 {
			t.Fatalf("plan %+v: %d stores outside the interior", plan, len(stores))
		}
	}
}

// TestTraceHierarchySmokeTest replays a kernel through the UltraSparc2
// hierarchy and sanity-checks the statistics: accesses accounted at L1,
// L2 traffic not exceeding L1 misses.
func TestTraceHierarchySmokeTest(t *testing.T) {
	w := NewWorkload(Jacobi, 64, 10, core.Plan{DI: 64, DJ: 64}, DefaultCoeffs())
	h := cache.UltraSparc2()
	w.RunTrace(h)
	l1, l2 := h.Level(0).Stats(), h.Level(1).Stats()
	if got, want := l1.Accesses(), uint64(w.AccessCount()); got != want {
		t.Errorf("L1 accesses = %d, want %d", got, want)
	}
	if l2.Accesses() != l1.Misses() {
		t.Errorf("L2 accesses %d != L1 misses %d", l2.Accesses(), l1.Misses())
	}
	if l1.Misses() == 0 {
		t.Error("expected some L1 misses")
	}
}

package cache_test

import (
	"fmt"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// TestReplayStreamsMatchPerAccess replays whole untiled JACOBI and RESID
// sweeps at sizes whose neighbouring planes' rows share L1 sets at
// different lockstep indices (the phase-ordered clusters' home) through
// the batched engine and through the per-access path, on the paper's
// hierarchy and the advisor's 2-way and 32K/64B L1s over the paper's
// L2, and requires identical statistics and cache state at every level.
func TestReplayStreamsMatchPerAccess(t *testing.T) {
	l1s := []struct {
		name string
		cfg  cache.Config
	}{
		{"dm16k", cache.UltraSparc2L1()},
		{"assoc2", cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2}},
		{"dm32k", cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 1}},
	}
	for _, k := range []stencil.Kernel{stencil.Jacobi, stencil.Resid} {
		for _, n := range []int{60, 75, 100, 110} {
			w := stencil.NewTraceWorkload(k, n, 4, core.Select(core.Orig, 2048, n, n, k.Spec()))
			for _, l1 := range l1s {
				want := cache.MustHierarchy(l1.cfg, cache.UltraSparc2L2())
				got := cache.MustHierarchy(l1.cfg, cache.UltraSparc2L2())
				w.ReplayTrace(cache.PerAccess{Mem: want})
				w.ReplayTrace(got)
				for lv := 0; lv < 2; lv++ {
					label := fmt.Sprintf("%s N=%d %s L%d", k, n, l1.name, lv+1)
					if ws, gs := want.Level(lv).Stats(), got.Level(lv).Stats(); ws != gs {
						t.Errorf("%s: stats differ:\n per-access %+v\n batched    %+v", label, ws, gs)
					}
					if !want.Level(lv).StateEqual(got.Level(lv)) {
						t.Errorf("%s: cache state differs", label)
					}
				}
			}
		}
	}
}

package stencil

import (
	"fmt"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
)

// Differential coverage for the batched engine at kernel level: replay
// every kernel under per-access and batched simulation and require
// bit-identical counters at both cache levels, across unpadded grids
// (including the pathological power-of-two sizes whose conflicting
// streams take the engine's exact interleaved path), tiled plans, and
// padded plans.

func replayCases(k Kernel) []struct {
	name     string
	n, depth int
	plan     core.Plan
} {
	spec := k.Spec()
	pad := core.Select(core.MethodGcdPad, 2048, 20, 20, spec)
	return []struct {
		name     string
		n, depth int
		plan     core.Plan
	}{
		{"orig-unpadded", 20, 7, core.Plan{DI: 20, DJ: 20}},
		{"tiled-unpadded", 22, 8, core.Plan{Tile: core.Tile{TI: 5, TJ: 7}, DI: 22, DJ: 22, Tiled: true}},
		{"gcdpad", 20, 7, pad},
		// Padding without tiling at full size: whole-row runs whose plane
		// neighbors partially alias in the L1 set space, the shape that
		// exercises the engine's phase-ordered split of a component.
		{"gcdpad-untiled", 256, 3, core.Select(core.MethodGcdPadNT, 2048, 256, 256, spec)},
		// 64*64 elements * 8B = 32KB ≡ 0 mod 16KB: adjacent planes
		// collide in the UltraSparc2 L1, the paper's pathological case.
		{"pathological", 64, 8, core.Plan{DI: 64, DJ: 64}},
		{"pathological-tiled", 64, 8, core.Plan{Tile: core.Tile{TI: 9, TJ: 6}, DI: 64, DJ: 64, Tiled: true}},
	}
}

func TestReplayTraceMatchesRunTrace(t *testing.T) {
	hierarchies := map[string][]cache.Config{
		"ultrasparc2": {cache.UltraSparc2L1(), cache.UltraSparc2L2()},
		"small-assoc": {
			{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 2},
			{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 4, WriteAllocate: true},
		},
		"prefetch": {
			{SizeBytes: 2 << 10, LineBytes: 32, NextLinePrefetch: true},
			{SizeBytes: 64 << 10, LineBytes: 64, WriteAllocate: true},
		},
	}
	for hname, cfgs := range hierarchies {
		for _, k := range Kernels() {
			for _, tc := range replayCases(k) {
				t.Run(fmt.Sprintf("%s/%v/%s", hname, k, tc.name), func(t *testing.T) {
					w := NewTraceWorkload(k, tc.n, tc.depth, tc.plan)
					want := cache.MustHierarchy(cfgs...)
					got := cache.MustHierarchy(cfgs...)
					// Warm sweep plus measured sweep on each path, the
					// shape SimulateStats uses.
					w.RunTrace(want)
					w.ReplayTrace(got)
					for pass := 0; pass < 2; pass++ {
						for l := 0; l < 2; l++ {
							ws, gs := want.Level(l).Stats(), got.Level(l).Stats()
							if ws != gs {
								t.Fatalf("pass %d L%d:\n per-access %+v\n batched    %+v", pass, l+1, ws, gs)
							}
						}
						want.ResetStats()
						got.ResetStats()
						w.RunTrace(want)
						w.ReplayTrace(got)
					}
				})
			}
		}
	}
}

// TestTraceWorkloadMatchesBacked checks a shape-only workload emits the
// same address stream as a data-backed one.
func TestTraceWorkloadMatchesBacked(t *testing.T) {
	for _, k := range Kernels() {
		plan := core.Select(core.MethodGcdPad, 2048, 24, 24, k.Spec())
		backed := NewWorkload(k, 24, 6, plan, DefaultCoeffs())
		shape := NewTraceWorkload(k, 24, 6, plan)
		var a, b cache.RunRecorder
		backed.ReplayTrace(&a)
		shape.ReplayTrace(&b)
		if len(a.Runs) != len(b.Runs) {
			t.Fatalf("%v: backed %d runs, shape %d runs", k, len(a.Runs), len(b.Runs))
		}
		for i := range a.Runs {
			if a.Runs[i] != b.Runs[i] {
				t.Fatalf("%v: run %d differs: %+v vs %+v", k, i, a.Runs[i], b.Runs[i])
			}
		}
	}
}

// TestRunRecorderRoundTrip checks that recording a batched trace and
// replaying it later is equivalent to replaying the walker directly,
// and that Reset allows reuse without reallocation.
func TestRunRecorderRoundTrip(t *testing.T) {
	w := NewTraceWorkload(Jacobi, 20, 6, core.Plan{DI: 20, DJ: 20})
	var rec cache.RunRecorder
	direct := cache.MustHierarchy(cache.UltraSparc2L1(), cache.UltraSparc2L2())
	replayed := cache.MustHierarchy(cache.UltraSparc2L1(), cache.UltraSparc2L2())
	w.ReplayTrace(direct)
	w.ReplayTrace(&rec)
	replayed.ReplayRuns(rec.Runs)
	for l := 0; l < 2; l++ {
		if d, r := direct.Level(l).Stats(), replayed.Level(l).Stats(); d != r {
			t.Errorf("L%d: direct %+v, recorded %+v", l+1, d, r)
		}
	}
	var count cache.NullMemory
	count.ReplayRuns(rec.Runs)
	if got := count.LoadCount + count.StoreCount; got != uint64(w.AccessCount()) {
		t.Errorf("recorded %d accesses, want %d", got, w.AccessCount())
	}
	first := cap(rec.Runs)
	rec.Reset()
	if len(rec.Runs) != 0 || cap(rec.Runs) != first {
		t.Errorf("Reset: len %d cap %d, want 0 and %d", len(rec.Runs), cap(rec.Runs), first)
	}
	w.ReplayTrace(&rec)
	if cap(rec.Runs) != first {
		t.Errorf("re-record grew the buffer: cap %d, want %d", cap(rec.Runs), first)
	}
}

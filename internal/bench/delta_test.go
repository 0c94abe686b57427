package bench

import (
	"context"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/stencil"
)

// Delta replay of the measured sweeps must be invisible in the
// results: every number a sweep produces has to be bit-identical with
// -steady=false -warmshare=false full simulation, for every kernel,
// method, geometry, and interplay with resume and warm sharing.

// fullSim returns opt with every acceleration engine disabled: the
// ground-truth configuration.
func fullSim(opt Options) Options {
	opt.DisableSteady = true
	opt.DisableWarmShare = true
	return opt
}

func TestDeltaPointDifferential(t *testing.T) {
	opt := smallOptions()
	opt.Sweeps = 3
	off := fullSim(opt)
	for _, k := range stencil.Kernels() {
		for _, m := range opt.Methods {
			for _, n := range []int{40, 61} {
				got := SimulateStats(k, m, n, opt)
				want := SimulateStats(k, m, n, off)
				if got != want {
					t.Errorf("%s/%s N=%d: delta path diverged:\n  delta %+v\n  full  %+v", k, m, n, got, want)
				}
			}
		}
	}
}

// TestDeltaSweepIdentical drives every point of the sweep engine
// through delta replay (warm sharing off, so plan-identical points
// simulate too) and requires bit-identical outcomes plus actual replay.
func TestDeltaSweepIdentical(t *testing.T) {
	reused := 0
	for _, k := range stencil.Kernels() {
		opt := smallOptions()
		opt.Sweeps = 2
		opt.DisableWarmShare = true
		var mu sync.Mutex
		opt.DiagHook = func(d PointDiag) {
			mu.Lock()
			if d.DeltaReused() {
				reused++
			}
			mu.Unlock()
		}
		a, errA := simGrid(k, opt)
		b, errB := simGrid(k, fullSim(opt))
		if errA != nil || errB != nil {
			t.Fatalf("%s: simGrid errors: %v, %v", k, errA, errB)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: point %s diverged under delta simulation:\n  delta %+v\n  full  %+v",
					k, a[i].Key, a[i], b[i])
			}
		}
	}
	if reused == 0 {
		t.Fatal("delta replay never fired across the small grids")
	}
}

// TestDeltaWarmShareInterplay: with both layers on, followers copy
// results and leads delta-replay; outcomes still match full simulation
// exactly.
func TestDeltaWarmShareInterplay(t *testing.T) {
	for _, k := range stencil.Kernels() {
		opt := smallOptions()
		opt.Sweeps = 2
		a, errA := simGrid(k, opt)
		b, errB := simGrid(k, fullSim(opt))
		if errA != nil || errB != nil {
			t.Fatalf("%s: simGrid errors: %v, %v", k, errA, errB)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: point %s diverged with warmshare+delta:\n  got  %+v\n  full %+v",
					k, a[i].Key, a[i], b[i])
			}
		}
	}
}

// TestDeltaResumeInterplay: a sweep interrupted mid-run and resumed
// from its journal — so some groups' leads complete in the first run
// and their followers in the second, copying the journaled lead — must
// still match full simulation point for point.
func TestDeltaResumeInterplay(t *testing.T) {
	k := stencil.Jacobi
	base := smallOptions()
	base.Sweeps = 2
	path := filepath.Join(t.TempDir(), "delta_resume.jsonl")

	first := base
	j1, err := OpenJournal(path, first, false)
	if err != nil {
		t.Fatalf("journal: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first.Ctx = ctx
	first.Journal = j1
	first.Workers = 1 // deterministic cut point
	first.pointHook = func(done int) {
		if done >= 3 {
			cancel()
		}
	}
	if _, err := simGrid(k, first); err != context.Canceled {
		t.Fatalf("first run: want context.Canceled, got %v", err)
	}
	if err := j1.WriteErr(); err != nil {
		t.Fatalf("journal write: %v", err)
	}

	second := base
	j2, err := OpenJournal(path, second, true)
	if err != nil {
		t.Fatalf("resume journal: %v", err)
	}
	if j2.Resumed() == 0 {
		t.Fatal("nothing resumed; the interrupted-lead path was never exercised")
	}
	second.Journal = j2
	outs, err := simGrid(k, second)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}

	ref, err := simGrid(k, fullSim(base))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	for i := range outs {
		if outs[i] != ref[i] {
			t.Errorf("point %s diverged across resume:\n  got  %+v\n  full %+v",
				outs[i].Key, outs[i], ref[i])
		}
	}
}

// TestDeltaRandomGeometry: randomized cache geometries (including a
// set-associative level, where end-state chaining is conservatively
// unavailable and replay leans on pins) against full simulation.
func TestDeltaRandomGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	geoms := []struct{ l1, l2 cache.Config }{
		{cache.Config{SizeBytes: 4 << 10, LineBytes: 16, Assoc: 1},
			cache.Config{SizeBytes: 128 << 10, LineBytes: 128, Assoc: 1, WriteAllocate: true}},
		{cache.Config{SizeBytes: 2 << 10, LineBytes: 32, Assoc: 2},
			cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 2, WriteAllocate: true}},
		{cache.Config{SizeBytes: 8 << 10, LineBytes: 64, Assoc: 1, NextLinePrefetch: true},
			cache.Config{SizeBytes: 256 << 10, LineBytes: 64, Assoc: 1}},
	}
	kernels := stencil.Kernels()
	for gi, g := range geoms {
		opt := smallOptions()
		opt.L1, opt.L2 = g.l1, g.l2
		opt.Sweeps = 1 + rng.Intn(3)
		k := kernels[rng.Intn(len(kernels))]
		m := opt.Methods[rng.Intn(len(opt.Methods))]
		n := 40 + rng.Intn(41)
		got := SimulateStats(k, m, n, opt)
		want := SimulateStats(k, m, n, fullSim(opt))
		if got != want {
			t.Errorf("geom %d %s/%s N=%d sweeps=%d: diverged:\n  delta %+v\n  full  %+v",
				gi, k, m, n, opt.Sweeps, got, want)
		}
	}
}

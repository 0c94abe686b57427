package bench

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// renderMiss runs a miss sweep and renders it, failing the test on a
// sweep error. Byte-identical rendered output is the resume contract the
// cancellation tests pin.
func renderMiss(t *testing.T, opt Options) []byte {
	t.Helper()
	miss, err := MissSweep(stencil.Jacobi, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMissSeries(&buf, stencil.Jacobi, miss, opt.Methods, opt); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCancelResumeByteIdentical is the headline resilience contract: a
// sweep interrupted mid-flight and resumed from its checkpoint renders
// output byte-identical to an uninterrupted run.
func TestCancelResumeByteIdentical(t *testing.T) {
	opt := smallOptions()
	opt.Methods = []core.Method{core.Orig, core.MethodGcdPad}
	want := renderMiss(t, opt)

	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run1 := opt
	run1.Ctx = ctx
	run1.Journal = j
	run1.Workers = 1 // deterministic dispatch order: cancel lands after exactly 2 points
	run1.pointHook = func(done int) {
		if done == 2 {
			cancel()
		}
	}
	if _, serr := MissSweep(stencil.Jacobi, run1); !errors.Is(serr, context.Canceled) {
		t.Fatalf("interrupted sweep error = %v, want context.Canceled", serr)
	}
	if j.Len() < 2 {
		t.Fatalf("journal has %d points after interrupt, want >= 2", j.Len())
	}
	if j.Len() >= 2*len(opt.Sizes()) {
		t.Fatalf("journal has all %d points; cancellation did not stop the sweep", j.Len())
	}

	j2, err := OpenJournal(path, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Resumed() != j.Len() {
		t.Errorf("resumed %d points, journal had %d", j2.Resumed(), j.Len())
	}
	run2 := opt
	run2.Journal = j2
	// The hook runs on worker goroutines, outside the sweep's lock.
	var recomputed atomic.Int64
	run2.pointHook = func(int) { recomputed.Add(1) }
	got := renderMiss(t, run2)
	if !bytes.Equal(got, want) {
		t.Errorf("resumed output differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if wantNew := 2*len(opt.Sizes()) - j2.Resumed(); recomputed.Load() != int64(wantNew) {
		t.Errorf("resume recomputed %d points, want %d (journal should answer the rest)", recomputed.Load(), wantNew)
	}
}

// TestCancelledSweepReturnsPartials: unreached points come back as
// never-run sentinels (N == 0) and the renderer prints them as "-".
func TestCancelledSweepReturnsPartials(t *testing.T) {
	opt := smallOptions()
	opt.Methods = []core.Method{core.Orig, core.MethodGcdPad}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt.Ctx = ctx
	opt.Workers = 1
	opt.pointHook = func(done int) {
		if done == 1 {
			cancel()
		}
	}
	miss, serr := MissSweep(stencil.Jacobi, opt)
	if !errors.Is(serr, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", serr)
	}
	var ran, skipped int
	for _, m := range opt.Methods {
		for _, p := range miss[m] {
			if p.N == 0 {
				skipped++
			} else {
				ran++
			}
		}
	}
	if ran == 0 || skipped == 0 {
		t.Fatalf("ran=%d skipped=%d; want both nonzero after mid-sweep cancel", ran, skipped)
	}
	var buf bytes.Buffer
	if err := WriteMissSeries(&buf, stencil.Jacobi, miss, opt.Methods, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "-") {
		t.Errorf("renderer does not mark unreached points:\n%s", buf.String())
	}
}

// TestInjectedPanicIsolated: a panicking point is recorded as failed
// while every other point completes, and the renderer reports it.
func TestInjectedPanicIsolated(t *testing.T) {
	opt := smallOptions()
	opt.Methods = []core.Method{core.Orig, core.MethodGcdPad}
	opt.InjectPanicN = 60 // middle of the 40/60/80 sweep
	miss, err := MissSweep(stencil.Jacobi, opt)
	if err != nil {
		t.Fatal(err)
	}
	sizes := opt.Sizes()
	for _, m := range opt.Methods {
		for i, p := range miss[m] {
			if sizes[i] == opt.InjectPanicN {
				if !p.Failed {
					t.Errorf("%v N=%d: injected panic not recorded as failure: %+v", m, sizes[i], p)
				}
			} else if p.Failed || p.N != sizes[i] {
				t.Errorf("%v N=%d: healthy point damaged by neighbor's panic: %+v", m, sizes[i], p)
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteMissSeries(&buf, stencil.Jacobi, miss, opt.Methods, opt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FAIL") {
		t.Errorf("renderer does not mark the failed point:\n%s", buf.String())
	}
}

// TestTable3ReportsFailures: a failed point surfaces in the row's Failed
// list and in the rendered table, and the averages still compute.
func TestTable3ReportsFailures(t *testing.T) {
	opt := smallOptions()
	opt.InjectPanicN = 60
	rows, err := Table3(opt, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Failed) == 0 {
			t.Errorf("%v: no failures reported despite injected panic", r.Kernel)
		}
	}
	var buf bytes.Buffer
	if err := WriteTable3(&buf, rows, opt.Methods); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FAILED point") {
		t.Errorf("rendered table does not report failures:\n%s", buf.String())
	}
}

// TestDegradedRetry: a fault that only strikes the steady engine makes
// the point succeed on the fallback attempt, marked Degraded with the
// primary error preserved — and the degraded result is still correct.
func TestDegradedRetry(t *testing.T) {
	opt := smallOptions()
	opt.Methods = []core.Method{core.MethodGcdPad}
	opt.faultInject = func(o Options, m core.Method, n int) {
		if !o.DisableSteady && n == 60 {
			panic("steady engine fault (injected)")
		}
	}
	outs, err := simGrid(stencil.Jacobi, opt)
	if err != nil {
		t.Fatal(err)
	}
	clean := opt
	clean.faultInject = nil
	found := false
	for _, o := range outs {
		if o.Key.N != 60 {
			if o.Degraded || o.Failed {
				t.Errorf("%s: unexpected %+v", o.Key, o)
			}
			continue
		}
		found = true
		if !o.Degraded || o.Failed {
			t.Fatalf("%s: want Degraded success, got %+v", o.Key, o)
		}
		if !strings.Contains(o.Err, "steady engine fault") {
			t.Errorf("%s: primary error lost: %q", o.Key, o.Err)
		}
		if want := SimulateStats(stencil.Jacobi, core.MethodGcdPad, 60, clean); o.Res != want {
			t.Errorf("%s: degraded result %+v != direct %+v", o.Key, o.Res, want)
		}
	}
	if !found {
		t.Fatal("N=60 point missing from outcomes")
	}
}

// TestPersistentFaultFails: a fault that also strikes the fallback
// exhausts the ladder; the point is Failed with both errors recorded.
func TestPersistentFaultFails(t *testing.T) {
	opt := smallOptions()
	opt.Methods = []core.Method{core.Orig}
	opt.NMin, opt.NMax = 40, 40
	opt.faultInject = func(o Options, m core.Method, n int) {
		panic("persistent fault (injected)")
	}
	outs, err := simGrid(stencil.Jacobi, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || !outs[0].Failed {
		t.Fatalf("want one Failed outcome, got %+v", outs)
	}
	if !strings.Contains(outs[0].Err, "retry without steady engine") {
		t.Errorf("failure does not record the retry: %q", outs[0].Err)
	}
}

// TestPointTimeoutDegrades: a hang in the primary attempt trips the
// watchdog and the point completes on the fallback.
func TestPointTimeoutDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("watchdog test sleeps")
	}
	opt := smallOptions()
	opt.Methods = []core.Method{core.Orig}
	opt.NMin, opt.NMax = 40, 40
	opt.PointTimeout = 25 * time.Millisecond
	opt.faultInject = func(o Options, m core.Method, n int) {
		if !o.DisableSteady {
			time.Sleep(2 * time.Second) // simulated hang; abandoned by the watchdog
		}
	}
	outs, err := simGrid(stencil.Jacobi, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || !outs[0].Degraded || outs[0].Failed {
		t.Fatalf("want Degraded success after timeout, got %+v", outs)
	}
	if !strings.Contains(outs[0].Err, "point-timeout") {
		t.Errorf("error does not name the watchdog: %q", outs[0].Err)
	}
}

// TestAbandonedWorkersCountedAndHarmless: a watchdog timeout abandons
// the simulation goroutine; the tally must record it (total and, while
// it still runs, the live gauge), the point's diagnostic must name it,
// and — the property that matters — the abandoned worker finishing late
// must not corrupt any later point: every other outcome is identical to
// a fault-free sweep.
func TestAbandonedWorkersCountedAndHarmless(t *testing.T) {
	if testing.Short() {
		t.Skip("watchdog test sleeps")
	}
	opt := smallOptions()
	opt.Methods = []core.Method{core.Orig, core.MethodGcdPad}
	opt.Workers = 1 // deterministic point order: the stuck point runs first
	opt.DisableWarmShare = true
	opt.PointTimeout = 25 * time.Millisecond
	stuck := PointKey{Kernel: "JACOBI", Method: "Orig", N: 40}
	opt.faultInject = func(o Options, m core.Method, n int) {
		if m == core.Orig && n == 40 && !o.DisableSteady {
			time.Sleep(400 * time.Millisecond) // primary attempt hangs; fallback is clean
		}
	}
	var diagMu sync.Mutex
	diagAbandoned := map[PointKey]int{}
	opt.DiagHook = func(d PointDiag) {
		diagMu.Lock()
		diagAbandoned[d.Key] += d.Abandoned
		diagMu.Unlock()
	}
	total0, _ := AbandonedWorkers()
	outs, err := simGrid(stencil.Jacobi, opt)
	if err != nil {
		t.Fatal(err)
	}
	total1, _ := AbandonedWorkers()
	if total1-total0 != 1 {
		t.Errorf("abandoned total rose by %d, want 1", total1-total0)
	}
	diagMu.Lock()
	if diagAbandoned[stuck] != 1 {
		t.Errorf("PointDiag.Abandoned for %s = %d, want 1", stuck, diagAbandoned[stuck])
	}
	diagMu.Unlock()

	clean := opt
	clean.faultInject = nil
	clean.PointTimeout = 0
	clean.DiagHook = nil
	wants, err := simGrid(stencil.Jacobi, clean)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Key == stuck {
			if !o.Degraded || o.Failed {
				t.Fatalf("%s: want Degraded success after timeout, got %+v", o.Key, o)
			}
			if o.Res != wants[i].Res {
				t.Errorf("%s: degraded result %+v != clean %+v", o.Key, o.Res, wants[i].Res)
			}
			continue
		}
		if o.Degraded || o.Failed || o.Res != wants[i].Res {
			t.Errorf("%s: outcome corrupted by an abandoned neighbor: %+v != %+v", o.Key, o, wants[i])
		}
	}

	// The abandoned goroutine eventually finishes and the live gauge
	// returns to its starting level (other tests may abandon workers of
	// their own, so poll for quiescence rather than an absolute value).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, live := AbandonedWorkers(); live == 0 {
			break
		}
		if time.Now().After(deadline) {
			_, live := AbandonedWorkers()
			t.Fatalf("abandoned live gauge stuck at %d", live)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParanoidSweepIdentical: the sampled self-check neither changes any
// statistic nor degrades any point on a healthy engine, and it checks
// the path production runs: every paranoid point's measured sweep is
// delta-replayed.
func TestParanoidSweepIdentical(t *testing.T) {
	plain := smallOptions()
	plain.Methods = []core.Method{core.Orig, core.MethodGcdPad}
	par := plain
	par.ParanoidEvery = 1 // cross-check every point
	var mu sync.Mutex
	diags := map[PointKey]PointDiag{}
	par.DiagHook = func(d PointDiag) {
		mu.Lock()
		diags[d.Key] = d
		mu.Unlock()
	}
	a, errA := simGrid(stencil.Jacobi, plain)
	b, errB := simGrid(stencil.Jacobi, par)
	if errA != nil || errB != nil {
		t.Fatalf("sweep errors: %v, %v", errA, errB)
	}
	for i := range a {
		if b[i].Degraded || b[i].Failed {
			t.Errorf("%s: paranoid check degraded a healthy point: %+v", b[i].Key, b[i])
		}
		if a[i].Res != b[i].Res {
			t.Errorf("%s: paranoid result %+v != plain %+v", a[i].Key, b[i].Res, a[i].Res)
		}
		if d := diags[b[i].Key]; d.Delta.Sweeps == 0 {
			t.Errorf("%s: paranoid point did not exercise delta replay: %s", b[i].Key, d)
		}
	}
}

// TestSweepValidatesOptionsUpFront: a malformed sweep fails before any
// simulation, through every experiment entry point.
func TestSweepValidatesOptionsUpFront(t *testing.T) {
	bad := smallOptions()
	bad.NMin = bad.NMax + 1
	if _, err := MissSweep(stencil.Jacobi, bad); err == nil {
		t.Error("MissSweep accepted NMin > NMax")
	}
	if _, err := MissSeries(stencil.Jacobi, core.Orig, bad); err == nil {
		t.Error("MissSeries accepted NMin > NMax")
	}
	if _, err := Table3(bad, false); err == nil {
		t.Error("Table3 accepted NMin > NMax")
	}
	if _, err := EstimateSweep(stencil.Jacobi, bad, UltraSparc2Model()); err == nil {
		t.Error("EstimateSweep accepted NMin > NMax")
	}
	if _, _, err := CombinedSweep(stencil.Jacobi, bad, UltraSparc2Model()); err == nil {
		t.Error("CombinedSweep accepted NMin > NMax")
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := smallOptions().Validate(); err != nil {
		t.Fatalf("smallOptions invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"NMin greater than NMax", func(o *Options) { o.NMin = o.NMax + 1 }},
		{"zero NStep", func(o *Options) { o.NStep = 0 }},
		{"negative NStep", func(o *Options) { o.NStep = -4 }},
		{"tiny N", func(o *Options) { o.NMin = 2 }},
		{"no methods", func(o *Options) { o.Methods = nil }},
		{"bad L1 line size", func(o *Options) { o.L1.LineBytes = 33 }},
		{"bad L2 geometry", func(o *Options) { o.L2.LineBytes = 0; o.L2.SizeBytes = 1 }},
		{"zero K", func(o *Options) { o.K = 0 }},
		{"negative Sweeps", func(o *Options) { o.Sweeps = -1 }},
		{"negative TargetElems", func(o *Options) { o.TargetElems = -1 }},
		{"negative PointTimeout", func(o *Options) { o.PointTimeout = -time.Second }},
		{"negative ParanoidEvery", func(o *Options) { o.ParanoidEvery = -1 }},
		{"GcdPad with non-power-of-two target", func(o *Options) { o.TargetElems = 1000 }},
	}
	for _, tc := range cases {
		o := smallOptions()
		tc.mutate(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, o)
		}
	}
	// Zero-value execution knobs stay valid: they all have usable defaults.
	o := smallOptions()
	o.Sweeps, o.Workers, o.TargetElems = 0, 0, 0
	if err := o.Validate(); err != nil {
		t.Errorf("zero-value knobs rejected: %v", err)
	}
}

// TestSizesEdgeCases pins the documented behavior of the malformed
// ranges Validate rejects, for callers that bypass validation.
func TestSizesEdgeCases(t *testing.T) {
	o := smallOptions()
	o.NStep = 0 // behaves as 1
	if got := o.Sizes(); len(got) != o.NMax-o.NMin+1 {
		t.Errorf("NStep=0 sizes = %v", got)
	}
	o = smallOptions()
	o.NMin = o.NMax + 10 // yields just NMax
	if got := o.Sizes(); len(got) != 1 || got[0] != o.NMax {
		t.Errorf("NMin>NMax sizes = %v, want [%d]", got, o.NMax)
	}
}

// TestFingerprintNormalizesSweeps: Sweeps 0 and 1 are the same
// simulation, so their journals must interchange.
func TestFingerprintNormalizesSweeps(t *testing.T) {
	a := smallOptions()
	b := a
	a.Sweeps, b.Sweeps = 0, 1
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("Sweeps 0 and 1 fingerprint differently:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
	b.Sweeps = 2
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("Sweeps 1 and 2 share a fingerprint")
	}
	// Execution knobs do not affect results, so they must not affect
	// the fingerprint either.
	c := smallOptions()
	c.Workers, c.DisableSteady, c.ParanoidEvery, c.PointTimeout = 7, true, 3, time.Minute
	if c.Fingerprint() != smallOptions().Fingerprint() {
		t.Error("execution knobs changed the fingerprint")
	}
}

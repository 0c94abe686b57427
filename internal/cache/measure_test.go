package cache

import "testing"

// echoCycle is a stream whose sweep-echo records straddle its own sweep
// boundaries, as a V-cycle's do: phase X opens both the second and the
// fourth phase of every cycle, so the recorder delimits sweeps at X and
// an echo entered at the second X runs on into the next cycle. Every
// phase is a single Δ=0 unit, which the phase machinery leaves alone,
// and rewrites every set (cachePhase), so the echo's entry states match
// from the second cycle on.
func echoCycle(sink RunSink) {
	cachePhase(sink, 0, 1, 0)     // A
	cachePhase(sink, 1<<22, 1, 0) // X
	cachePhase(sink, 1<<23, 1, 0) // B
	cachePhase(sink, 1<<22, 1, 0) // X
}

// TestSteadySelfCheckSettles: SelfCheck's ResetStats and Check fall on
// cycle ends, where a sweep echo is in flight; both must settle it
// first, or the reset lands mid-echo and the check compares stats the
// echo has not committed yet.
func TestSteadySelfCheckSettles(t *testing.T) {
	sc := NewSelfCheck(MustHierarchy(UltraSparc2L1(), UltraSparc2L2()))
	echoCycle(sc)
	echoCycle(sc)
	if !sc.Steady.sw.echoing {
		t.Fatal("setup: no sweep echo in flight at the cycle end")
	}
	sc.ResetStats()
	for c := 0; c < 2; c++ {
		echoCycle(sc)
		if !sc.Steady.sw.echoing {
			t.Fatalf("setup: cycle %d ends with no sweep echo in flight", c+3)
		}
		if err := sc.Check(); err != nil {
			t.Fatalf("cycle %d: %v", c+3, err)
		}
	}
}

// TestSteadyWarmMeasure: the warm-measure driver must leave statistics
// and state equal to the raw protocol — warm-up, reset, measured sweeps
// — with the engine off, with delta replay off, and with delta replay
// on, both for a stream whose trace replays (deltaSweep) and for one
// whose measured sweeps end with a sweep echo in flight (echoCycle).
func TestSteadyWarmMeasure(t *testing.T) {
	streams := []struct {
		name  string
		sweep func(RunSink)
	}{{"phases", deltaSweep}, {"echo", echoCycle}}
	for _, tc := range streams {
		for sweeps := 1; sweeps <= 3; sweeps++ {
			raw := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
			tc.sweep(raw)
			raw.ResetStats()
			for i := 0; i < sweeps; i++ {
				tc.sweep(raw)
			}
			for _, mode := range []string{"raw", "steady", "delta"} {
				h := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
				var sd *Steady
				if mode != "raw" {
					sd = NewSteady(h)
				}
				traced := WarmMeasure(h, sd, sweeps, mode == "delta", tc.sweep)
				assertDeltaEqual(t, tc.name+"/"+mode, raw, h)
				if tc.name == "phases" && mode == "delta" {
					if d := sd.DeltaInfo(); !traced || d.Sweeps != uint64(sweeps) {
						t.Errorf("phases: %d measured sweeps, traced=%v: %s", sweeps, traced, d)
					}
				}
			}
		}
	}
}

package analytic

import (
	"math"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

func ultra1() Machine { return FromConfig(cache.UltraSparc2L1(), 8) }

func simulateJacobi(n int, plan core.Plan) float64 {
	w := stencil.NewWorkload(stencil.Jacobi, n, 12, plan, stencil.DefaultCoeffs())
	h := cache.MustHierarchy(cache.UltraSparc2L1())
	w.RunTrace(h)
	h.ResetStats()
	w.RunTrace(h)
	return h.Level(0).Stats().MissRate()
}

// TestPredictorTracksSimulatorOrig validates the capacity-only predictor
// against the simulator at well-behaved (non-pathological) sizes: within
// a few percentage points, since conflicts are excluded by design.
func TestPredictorTracksSimulatorOrig(t *testing.T) {
	m := ultra1()
	// Sizes chosen so the plane stride N^2 mod C_s keeps rows from
	// different planes well apart — the conflict-free regime the
	// capacity-only predictor models. (N=101, for instance, puts plane
	// k+1 rows 39 elements below plane k rows and the predictor
	// underestimates — by design; see the pathological test below.)
	for _, n := range []int{37, 135, 149, 299} {
		pred := m.JacobiOrigMissRate(n)
		sim := simulateJacobi(n, core.Plan{DI: n, DJ: n})
		if d := math.Abs(pred - sim); d > 6 {
			t.Errorf("N=%d: predicted %.2f%%, simulated %.2f%% (diff %.2f)", n, pred, sim, d)
		}
	}
}

// TestPredictorDivergesAtPathologicalSizes shows the predictor's designed
// blind spot: at sizes where columns conflict systematically the
// simulator exceeds the capacity-only prediction — the conflict misses
// that motivate Section 3.
func TestPredictorDivergesAtPathologicalSizes(t *testing.T) {
	m := ultra1()
	n := 256 // 2048/256 = 8: every 8th column maps to the same set
	pred := m.JacobiOrigMissRate(n)
	sim := simulateJacobi(n, core.Plan{DI: n, DJ: n})
	if sim <= pred+3 {
		t.Errorf("N=%d pathological: simulated %.2f%% not well above capacity-only %.2f%%", n, sim, pred)
	}
}

// TestPredictorTiled validates the tiled prediction against a simulated
// GcdPad run (conflict-free by construction, so the capacity model
// should be tight).
func TestPredictorTiled(t *testing.T) {
	m := ultra1()
	st := core.Jacobi6pt()
	for _, n := range []int{240, 300} {
		plan := core.GcdPad(2048, n, n, st)
		pred := m.JacobiTiledMissRate(plan.Tile.TI, plan.Tile.TJ)
		sim := simulateJacobi(n, plan)
		if d := math.Abs(pred - sim); d > 3 {
			t.Errorf("N=%d: tiled predicted %.2f%%, simulated %.2f%%", n, pred, sim)
		}
	}
}

func TestRegimeTransitions(t *testing.T) {
	m := ultra1()
	// Below the 3D boundary the orig rate equals the tiled-ideal floor.
	small := m.JacobiOrigMissRate(20)
	large := m.JacobiOrigMissRate(300)
	if small >= large {
		t.Errorf("no regime change: %.2f%% at N=20 vs %.2f%% at N=300", small, large)
	}
	if b := m.reuseBoundary3D(); b != 32 {
		t.Errorf("reuseBoundary3D = %d, want 32", b)
	}
	// The J-row regime kicks in past N = C_s/8 = 256.
	mid := m.JacobiOrigMissRate(200)
	past := m.JacobiOrigMissRate(300)
	if past <= mid {
		t.Errorf("row-reuse regime not modeled: %.2f%% -> %.2f%%", mid, past)
	}
}

func Test2DPredictor(t *testing.T) {
	m := ultra1()
	// 2D Jacobi holds reuse up to N=1024: flat low rate below, higher above.
	lo := m.jacobi2DOrigMissRate(1000)
	hi := m.jacobi2DOrigMissRate(1100)
	if lo >= hi {
		t.Errorf("2D cliff missing: %.2f%% vs %.2f%%", lo, hi)
	}
	// Below the cliff, loads mostly hit: the rate is dominated by the
	// write-around store plus one line miss.
	want := 100 * (1.0/4 + 1) / 5
	if math.Abs(lo-want) > 0.01 {
		t.Errorf("2D low-regime rate %.2f%%, want %.2f%%", lo, want)
	}
}

func TestPathologicalPrediction(t *testing.T) {
	m := ultra1()
	// Known spikes in the paper's range: 256 and 320 (N^2 = 0 mod 2048),
	// 362 (N^2 = 2020, complement 28 < N).
	for _, n := range []int{256, 320, 362} {
		if !m.pathologicalJacobi3D(n) {
			t.Errorf("N=%d not flagged pathological", n)
		}
	}
	for _, n := range []int{300, 299, 350} {
		if m.pathologicalJacobi3D(n) {
			t.Errorf("N=%d wrongly flagged", n)
		}
	}
	sizes := m.pathologicalSizes(200, 400)
	if len(sizes) < 3 || len(sizes) > 60 {
		t.Errorf("flagged %d sizes in 200..400: %v", len(sizes), sizes)
	}
}

// TestPathologicalSizesSpikeInSimulator confirms the flagged sizes really
// spike: the simulated Orig rate at a flagged size exceeds the rate at
// its unflagged neighbors.
func TestPathologicalSizesSpikeInSimulator(t *testing.T) {
	m := ultra1()
	for _, n := range []int{256, 320} {
		if !m.pathologicalJacobi3D(n) || m.pathologicalJacobi3D(n-5) {
			t.Fatalf("test premise broken at n=%d", n)
		}
		spike := simulateJacobi(n, core.Plan{DI: n, DJ: n})
		calm := simulateJacobi(n-5, core.Plan{DI: n - 5, DJ: n - 5})
		if spike <= calm+2 {
			t.Errorf("N=%d: flagged size %.2f%% not well above neighbor %.2f%%", n, spike, calm)
		}
	}
}

func TestTiledSpeedupEstimate(t *testing.T) {
	m := ultra1()
	s := m.tiledSpeedupEstimate(300, 30, 14, 8)
	if s <= 1 || s > 3 {
		t.Errorf("speedup estimate %.2f out of plausible range", s)
	}
}

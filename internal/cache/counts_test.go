package cache_test

// The engine-count record: the exact L1/L2 statistics, every
// steady-engine and delta-layer counter and the raw replay engine's
// accesses by kind (Hierarchy.ReplayCounts) of a fixed set of simulated
// points, compared line by line against testdata/counts.golden. Table 3
// prints rates rounded to 0.1 pp, which cannot see a few misses or a
// phase the engine stopped committing; this record can. It holds
//
//   - each Table 3 quick point (the paper's hierarchy, K=30, N=200..400
//     step 50, every paper method, warm sharing on as in production);
//   - the §4.6 solvers at LM 5, Orig and GcdPad/2048, one warm-up and
//     one measured iteration;
//   - an advisor sample: the three kernels on the advisor's three L1s
//     over the paper's L2, its five methods, N = 48, 88, 128, K = 16,
//     one measured sweep, each point simulated alone.
//
// Regenerate (only when a counter change is intended, and name the
// change) with
//
//	go test ./internal/cache -run TestEngineCountRecord -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"tiling3d/internal/bench"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/mg"
	"tiling3d/internal/stencil"
)

var update = flag.Bool("update", false, "rewrite testdata/counts.golden")

// steadyFields and deltaFields print every counter by name; the
// diagnostics' String methods leave some out.
type (
	steadyFields cache.SteadyDiag
	deltaFields  cache.DeltaDiag
)

// countPoint renders one point of the record.
func countPoint(name string, l1, l2 cache.Stats, st cache.SteadyDiag, dl cache.DeltaDiag, rc cache.ReplayCounts) string {
	return fmt.Sprintf("%s\n  L1 %+v\n  L2 %+v\n  steady %+v\n  delta %+v\n  replay %+v\n",
		name, l1, l2, steadyFields(st), deltaFields(dl), rc)
}

// sweepCounts simulates every point of opt for each kernel through the
// sweep engine, as the experiments and the advisor do, and renders the
// record's lines for them, sorted.
func sweepCounts(t *testing.T, prefix string, opt bench.Options) []string {
	t.Helper()
	var mu sync.Mutex
	diags := map[bench.PointKey]bench.PointDiag{}
	opt.DiagHook = func(d bench.PointDiag) {
		mu.Lock()
		diags[d.Key] = d
		mu.Unlock()
	}
	var out []string
	for _, k := range stencil.Kernels() {
		outs, err := bench.SimOutcomes(k, opt)
		if err != nil {
			t.Fatalf("%s %s: %v", prefix, k, err)
		}
		for _, o := range outs {
			if o.Failed || o.Degraded {
				t.Fatalf("%s %s: point did not simulate on the production engine: %s", prefix, o.Key, o.Err)
			}
			d := diags[o.Key]
			name := fmt.Sprintf("%s %s", prefix, o.Key)
			if d.Shared != "" {
				name += " shared from " + d.Shared
			}
			out = append(out, countPoint(name, o.Res.L1, o.Res.L2, d.Steady, d.Delta, d.Replay))
		}
	}
	sort.Strings(out)
	return out
}

// mgridCounts runs the §4.6 warm-measure protocol for one solver on
// the paper's hierarchy: one warm-up iteration (a V-cycle plus the
// finest residual), then one measured iteration.
func mgridCounts(name string, plan core.Plan) string {
	s := mg.New(mg.Params{LM: 5, Plan: plan})
	h := cache.MustHierarchy(cache.UltraSparc2L1(), cache.UltraSparc2L2())
	sd := cache.NewSteady(h)
	cache.WarmMeasure(h, sd, 1, func(sink cache.RunSink) {
		s.TraceVCycleRuns(sink)
		s.TraceResidRuns(sink)
	})
	return countPoint(name, h.Level(0).Stats(), h.Level(1).Stats(), sd.Diag(), sd.DeltaInfo(), h.ReplayCounts())
}

// engineCounts computes the whole record.
func engineCounts(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	table3 := bench.DefaultOptions()
	table3.NStep = 50
	table3.Workers = 2
	for _, line := range sweepCounts(t, "table3", table3) {
		b.WriteString(line)
	}

	fm := (1 << 5) + 2
	b.WriteString(mgridCounts("mgrid LM=5 Orig", core.Plan{}))
	b.WriteString(mgridCounts("mgrid LM=5 GcdPad/2048", core.Select(core.MethodGcdPad, 2048, fm, fm, stencil.Resid.Spec())))

	l1s := []struct {
		name string
		cfg  cache.Config
	}{
		{"dm16k", cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}},
		{"assoc2", cache.Config{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2}},
		{"dm32k", cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 1}},
	}
	for _, l1 := range l1s {
		opt := bench.Options{
			L1:               l1.cfg,
			L2:               cache.UltraSparc2L2(),
			K:                16,
			NMin:             48,
			NMax:             128,
			NStep:            40,
			Methods:          []core.Method{core.Orig, core.MethodTile, core.MethodEuc3D, core.MethodGcdPad, core.MethodPad},
			Coeffs:           stencil.DefaultCoeffs(),
			Sweeps:           1,
			Workers:          2,
			DisableWarmShare: true,
		}
		for _, line := range sweepCounts(t, "advisor "+l1.name, opt) {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestEngineCountRecord recomputes the record and compares it with
// testdata/counts.golden exactly.
func TestEngineCountRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("the record simulates about 250 points")
	}
	got := engineCounts(t)
	path := filepath.Join("testdata", "counts.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(want, []byte(got)) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	point, bad := "", 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !strings.HasPrefix(g, " ") {
			point = g
		}
		if g != w {
			t.Errorf("%s, line %d:\n  got  %s\n  want %s", point, i+1, g, w)
			if bad++; bad == 10 {
				t.Fatal("more lines differ")
			}
		}
	}
}

// TestCoverageRuleSound runs every phase the coverage rule refuses in
// the record through detection and pins anyway: none may confirm a
// cycle or match a pin, and the statistics must still equal the
// record's.
func TestCoverageRuleSound(t *testing.T) {
	if testing.Short() {
		t.Skip("the record simulates about 250 points")
	}
	cache.SetCheckCoverage(true)
	defer cache.SetCheckCoverage(false)
	got := engineCounts(t)
	if n := cache.CoverageBreaches(); n != 0 {
		t.Errorf("%d cycles confirmed or pins matched in phases the coverage rule refuses", n)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "counts.golden"))
	if err != nil {
		t.Fatal(err)
	}
	stats := func(record string) []string {
		var out []string
		for _, line := range strings.Split(record, "\n") {
			if !strings.HasPrefix(line, "  steady") && !strings.HasPrefix(line, "  delta") && !strings.HasPrefix(line, "  replay") {
				out = append(out, line)
			}
		}
		return out
	}
	if g, w := stats(got), stats(string(want)); !slices.Equal(g, w) {
		t.Error("statistics differ from the record with refused phases run through detection")
	}
	if !strings.Contains(got, "RefusedCover:1") {
		t.Error("the rule refused no phase of the record")
	}
}

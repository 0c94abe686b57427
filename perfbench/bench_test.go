package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	if _, err := tailPercentile(samples(999), 99); err == nil {
		t.Error("p99 of 999 samples leaves 9 beyond it, want an error")
	}
	if v, err := tailPercentile(samples(1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1000 samples = %v, %v; want 990 (10 beyond)", v, err)
	}
	if v, err := tailPercentile(samples(90), 88); err != nil || v != 80 {
		t.Errorf("p88 of 90 samples = %v, %v; want 80", v, err)
	}
	if _, err := tailPercentile(samples(90), 89); err == nil {
		t.Error("p89 of 90 samples leaves 9 beyond it, want an error")
	}
	for n, want := range map[int]int{10: 0, 20: 50, 91: 89, 151: 93, 1000: 99, 5000: 99} {
		p := maxTail(n)
		if p != want {
			t.Errorf("maxTail(%d) = %d, want %d", n, p, want)
		}
		if _, err := tailPercentile(samples(n), p); p > 0 && err != nil {
			t.Errorf("maxTail(%d) = %d is refused: %v", n, p, err)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestGeomean(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{4}, 4},
		{[]float64{1, 4, 16}, 4},
		{[]float64{2, 8}, 4},
		{[]float64{1000, 2000, 4000}, 2000},
	} {
		got, err := geomean(c.xs)
		if err != nil || math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("geomean(%v) = %v, %v; want %v", c.xs, got, err, c.want)
		}
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}, {math.NaN()}} {
		if _, err := geomean(xs); err == nil {
			t.Errorf("geomean(%v) accepted", xs)
		}
	}
}

// TestTimedSinkIsTransparent drives two steady engines through the same
// walks, one behind the forwarding timing sink: statistics and the
// engine's diagnostics must agree.
func TestTimedSinkIsTransparent(t *testing.T) {
	l1, l2 := cache.UltraSparc2L1(), cache.UltraSparc2L2()
	for _, k := range stencil.Kernels() {
		for _, m := range []core.Method{core.Orig, core.MethodEuc3D, core.MethodGcdPad} {
			n := 96
			w := stencil.NewTraceWorkload(k, n, 16, core.Select(m, l1.Elems(8), n, n, k.Spec()))
			bare := cache.MustHierarchy(l1, l2)
			bareSteady := cache.NewSteady(bare)
			wrapped := cache.MustHierarchy(l1, l2)
			wrappedSteady := cache.NewSteady(wrapped)
			var acc callTimer
			sink := newTimedPlaneSink(wrappedSteady, &acc)
			for sweep := 0; sweep < 2; sweep++ {
				w.ReplayTrace(bareSteady)
				w.ReplayTrace(sink)
			}
			name := fmt.Sprintf("%s/%s", k, m)
			for lvl := 0; lvl < 2; lvl++ {
				if b, w := bare.Level(lvl).Stats(), wrapped.Level(lvl).Stats(); b != w {
					t.Errorf("%s L%d: stats %+v through the timing sink, %+v without", name, lvl+1, w, b)
				}
			}
			if b, w := bareSteady.Diag(), wrappedSteady.Diag(); b != w {
				t.Errorf("%s: Diag %+v through the timing sink, %+v without", name, w, b)
			}
			if acc.calls == 0 || acc.busy <= 0 {
				t.Errorf("%s: the timing sink timed %d calls, %v", name, acc.calls, acc.busy)
			}
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	at := func(ns int) time.Time { return tr.t0.Add(time.Duration(ns)) }
	tr.span("walk", 0, 1, at(0), at(100))   // id 1
	tr.span("walk", 0, 2, at(200), at(260)) // id 2
	tr.aggregate("sink", 1, 1, &callTimer{first: at(10), last: at(90), busy: 30, calls: 4})
	tr.span("inner", 2, 2, at(210), at(250))
	if got := tr.selfTotal("walk"); got != (100-30)+(60-40) {
		t.Errorf("self time = %v, want 90ns", got)
	}
	if got := tr.total("sink"); got != 30 {
		t.Errorf("aggregate covers %v, want its busy 30ns", got)
	}
}

func TestRequestStream(t *testing.T) {
	a, b, c := genRequests(1), genRequests(1), genRequests(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 1 and 2 gave the same stream")
	}
	mix := func(reqs []planReq) map[string]int {
		m := map[string]int{}
		for _, q := range reqs {
			m[fmt.Sprintf("class %d", q.class)]++
			if q.class == classSim {
				m[q.body.Kernel+"/"+q.geo+"/"+q.body.Method]++
			}
		}
		return m
	}
	if ma, mc := mix(a), mix(c); !reflect.DeepEqual(ma, mc) {
		t.Errorf("class mix differs between seeds:\n%v\n%v", ma, mc)
	}
	for _, reqs := range [][]planReq{a, c} {
		if len(reqs) < 1000 {
			t.Errorf("stream has %d requests, want >= 1000 for a p99", len(reqs))
		}
		keys := map[string]int{}
		for i, q := range reqs {
			if err := q.body.Validate(); err != nil {
				t.Fatalf("request %d invalid: %v", i, err)
			}
			key := q.body.Key()
			if q.class == classRepeat {
				if q.orig >= i || reqs[q.orig].class == classRepeat || keys[key] != q.orig+1 {
					t.Errorf("request %d repeats %d, which is not an earlier new request with its key", i, q.orig)
				}
				continue
			}
			if keys[key] != 0 {
				t.Errorf("new request %d has the key of request %d", i, keys[key]-1)
			}
			keys[key] = i + 1
		}
	}
}

// TestMetricsMatchBenchmarkJSON holds the printed metrics to the ones
// BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", c.name, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if g := c.got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark prints %+v", c.name, i, g, d)
			}
		}
	}
}

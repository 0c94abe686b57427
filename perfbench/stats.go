package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a tail percentile is reported only
// when at least this many samples lie beyond it.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank p-th percentile of xs, and an
// error when fewer than minBeyond samples lie beyond its rank.
func tailPercentile(xs []float64, p int) (float64, error) {
	n := len(xs)
	rank := (p*n + 99) / 100 // ceil(p/100 * n), 1-based
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%d of %d samples leaves %d beyond it, want >= %d", p, n, n-rank, minBeyond)
	}
	return sorted(xs)[rank-1], nil
}

// maxTail returns the highest whole percentile, at most 99, that n
// samples support under the percentile rule; 0 when none does.
func maxTail(n int) int {
	if n <= minBeyond {
		return 0
	}
	p := 100 * (n - minBeyond) / n
	if p > 99 {
		p = 99
	}
	return p
}

// geomean returns the geometric mean of xs, which must all be positive.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of no values")
	}
	var logs float64
	for _, x := range xs {
		if !(x > 0) {
			return 0, fmt.Errorf("geometric mean of non-positive value %v", x)
		}
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs))), nil
}

// samples holds one value per pass for each end-to-end metric (one per
// set-up for setup_s); a run reports their medians.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// addPass records the metrics every workload derives alike from a pass:
// its wall and CPU time and its operations' latencies, with the tail
// taken at the highest percentile the operation count supports. It
// returns that percentile.
func (s samples) addPass(wall, cpu time.Duration, latMs []float64) int {
	s.add("wall_s", wall.Seconds())
	s.add("cpu_s", cpu.Seconds())
	s.add("ops_per_s", float64(len(latMs))/wall.Seconds())
	s.add("p50_ms", median(latMs))
	p := maxTail(len(latMs))
	if tail, err := tailPercentile(latMs, p); err == nil {
		s.add("p99_ms", tail)
	}
	return p
}

// report sets every metric to the median of its samples.
func (s samples) report(rep *report) {
	for name, xs := range s {
		rep.set(name, median(xs))
	}
	rep.note("pass wall_s: %.3f", s["wall_s"])
}

// ratio is num/den, or 0 when there is nothing to divide by.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

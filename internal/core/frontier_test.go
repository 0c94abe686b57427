package core

import (
	"math/rand"
	"testing"
)

// bruteMinGap computes TI_max(tj) for depth tk directly from the
// definition: the largest TI such that the tile (TI, tj, tk) does not
// self-interfere.
func bruteMinGap(cs, di, dj, tj, tk int) int {
	lo, hi := 0, cs
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if SelfConflicts(cs, di, dj, mid, tj, tk) {
			hi = mid - 1
		} else {
			lo = mid
		}
	}
	return lo
}

// bruteFrontier enumerates the exact frontier via bruteMinGap.
func bruteFrontier(cs, di, dj, tk, maxTJ int) []FrontierEntry {
	var out []FrontierEntry
	prev, completed := 0, 0
	for tj := 1; tj <= maxTJ; tj++ {
		g := bruteMinGap(cs, di, dj, tj, tk)
		if g == 0 {
			break
		}
		completed = tj
		if tj > 1 && g < prev {
			out = append(out, FrontierEntry{TJ: tj - 1, TI: prev})
		}
		prev = g
	}
	if prev > 0 && completed >= 1 {
		out = append(out, FrontierEntry{TJ: completed, TI: prev})
	}
	return out
}

func TestOffsetSetPredSucc(t *testing.T) {
	const cs = 1 << 12
	s := newOffsetSet(cs)
	ref := make(map[int]bool)
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		x := rng.Intn(cs)
		if !ref[x] {
			s.insert(x)
			ref[x] = true
		}
		q := rng.Intn(cs)
		wantSucc, wantPred := -1, -1
		for v := q; v < cs; v++ {
			if ref[v] {
				wantSucc = v
				break
			}
		}
		for v := q; v >= 0; v-- {
			if ref[v] {
				wantPred = v
				break
			}
		}
		if got := s.succ(q); got != wantSucc {
			t.Fatalf("succ(%d) = %d, want %d (n=%d)", q, got, wantSucc, n)
		}
		if got := s.pred(q); got != wantPred {
			t.Fatalf("pred(%d) = %d, want %d (n=%d)", q, got, wantPred, n)
		}
	}
}

func TestFrontierMatchesBruteForce(t *testing.T) {
	cases := []struct{ cs, di, dj, tk int }{
		{2048, 200, 200, 1},
		{2048, 200, 200, 2},
		{2048, 200, 200, 3},
		{2048, 200, 200, 4},
		{2048, 341, 341, 3},
		{2048, 256, 256, 3}, // pathological: dimension divides cache size
		{2048, 257, 300, 3},
		{1024, 100, 50, 2},
		{512, 37, 41, 3},
		{4096, 130, 130, 3},
	}
	for _, c := range cases {
		got := Frontier(c.cs, c.di, c.dj, c.tk, 64)
		want := bruteFrontier(c.cs, c.di, c.dj, c.tk, 64)
		if len(got) != len(want) {
			t.Fatalf("cs=%d di=%d dj=%d tk=%d: frontier %v, want %v", c.cs, c.di, c.dj, c.tk, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("cs=%d di=%d dj=%d tk=%d entry %d: %v, want %v", c.cs, c.di, c.dj, c.tk, i, got[i], want[i])
			}
		}
	}
}

func TestFrontierMatchesBruteForceRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("random cross-validation is slow")
	}
	rng := rand.New(rand.NewSource(42))
	for n := 0; n < 60; n++ {
		cs := 1 << (6 + rng.Intn(6)) // 64..2048
		di := 2 + rng.Intn(400)
		dj := 2 + rng.Intn(400)
		tk := 1 + rng.Intn(4)
		got := Frontier(cs, di, dj, tk, 48)
		want := bruteFrontier(cs, di, dj, tk, 48)
		if len(got) != len(want) {
			t.Fatalf("cs=%d di=%d dj=%d tk=%d: frontier %v, want %v", cs, di, dj, tk, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cs=%d di=%d dj=%d tk=%d entry %d: %v, want %v", cs, di, dj, tk, i, got[i], want[i])
			}
		}
	}
}

func TestFrontierEntriesAreConflictFree(t *testing.T) {
	for _, c := range []struct{ cs, di, dj, tk int }{
		{2048, 200, 200, 3},
		{2048, 341, 341, 3},
		{2048, 300, 301, 4},
		{1024, 128, 128, 2},
	} {
		for _, e := range Frontier(c.cs, c.di, c.dj, c.tk, 0) {
			if SelfConflicts(c.cs, c.di, c.dj, e.TI, e.TJ, c.tk) {
				t.Errorf("cs=%d di=%d dj=%d tk=%d: frontier tile %v conflicts", c.cs, c.di, c.dj, c.tk, e)
			}
			// Maximality in TI: one more row must conflict (TI=cs excepted).
			if e.TI < c.cs && !SelfConflicts(c.cs, c.di, c.dj, e.TI+1, e.TJ, c.tk) {
				t.Errorf("cs=%d di=%d dj=%d tk=%d: tile %v not maximal in TI", c.cs, c.di, c.dj, c.tk, e)
			}
		}
	}
}

func TestFrontierDegenerateDims(t *testing.T) {
	// DI a multiple of the cache size: every column maps to the same
	// offset, so only a single column can be tiled.
	f := Frontier(2048, 2048, 10, 1, 0)
	if len(f) != 1 || f[0] != (FrontierEntry{TJ: 1, TI: 2048}) {
		t.Errorf("DI=cs frontier = %v, want [{1 2048}]", f)
	}
	// Plane stride a multiple of the cache size with tk>1: plane offsets
	// collide, no tile exists.
	f = Frontier(2048, 2048, 1, 2, 0)
	if len(f) != 0 {
		t.Errorf("colliding plane offsets: frontier = %v, want empty", f)
	}
}

func TestEucClassicMatchesFrontier2D(t *testing.T) {
	for _, c := range []struct{ cs, di int }{
		{2048, 200}, {2048, 341}, {2048, 256}, {1024, 300}, {4096, 130},
		{2048, 2047}, {2048, 3}, {512, 512},
	} {
		got := eucClassic(c.cs, c.di)
		want := Frontier(c.cs, c.di, 1, 1, 0)
		if len(got) != len(want) {
			t.Fatalf("cs=%d di=%d: eucClassic %v, frontier %v", c.cs, c.di, got, want)
		}
		// eucClassic orders by decreasing TI; Frontier by increasing TJ.
		// Both orders must agree element-wise after reversal when TJ is
		// strictly increasing in the remainder sequence.
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("cs=%d di=%d entry %d: eucClassic %v, frontier %v", c.cs, c.di, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkFrontierL1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Frontier(2048, 341, 341, 3, 0)
	}
}

package bench

import (
	"testing"

	"tiling3d/internal/cache"
)

// TestTwoDTilingUnnecessary verifies the Section 2.1 claim at simulation
// level: below the 2D reuse boundary, tiling changes the 2D Jacobi miss
// rate by essentially nothing; the 3D kernel at the same sizes is already
// far past ITS boundary and tiling helps substantially.
func TestTwoDTilingUnnecessary(t *testing.T) {
	l1 := cache.UltraSparc2L1()
	pts := TwoDSeries([]int{300, 500, 900}, l1, smallOptions())
	for _, p := range pts {
		diff := p.Orig - p.Tiled
		if diff < 0 {
			diff = -diff
		}
		if diff > 1.0 {
			t.Errorf("N=%d: 2D tiling changed the miss rate by %.2fpp (orig %.2f, tiled %.2f)",
				p.N, diff, p.Orig, p.Tiled)
		}
	}
}

// TestTwoDCliffPast1024: beyond N = C_s/2 = 1024 the untiled 2D code
// loses the column reuse and its miss rate rises.
func TestTwoDCliffPast1024(t *testing.T) {
	l1 := cache.UltraSparc2L1()
	pts := TwoDSeries([]int{1000, 1100}, l1, smallOptions())
	if pts[1].Orig <= pts[0].Orig+2 {
		t.Errorf("no 2D cliff: %.2f%% at N=1000, %.2f%% at N=1100", pts[0].Orig, pts[1].Orig)
	}
}

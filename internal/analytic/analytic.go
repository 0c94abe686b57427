// Package analytic provides first-order closed-form miss-rate predictions
// for the stencil kernels — the arithmetic of the paper's Section 1 and
// the cost model of Section 2.3 turned into a predictor, in the spirit of
// cache miss equations (Ghosh et al.), but deliberately simple: capacity
// effects only, conflict misses excluded. The tests validate it against
// the simulator away from pathological array sizes, and its divergence AT
// pathological sizes is itself the paper's motivation for padding.
package analytic

import "tiling3d/internal/cache"

// Machine describes the cache level being predicted, in elements.
type Machine struct {
	// CacheElems is the capacity in array elements (C_s).
	CacheElems int
	// LineElems is the line size in array elements (L).
	LineElems int
}

// FromConfig derives a Machine from a simulator configuration.
func FromConfig(cfg cache.Config, elemSize int) Machine {
	return Machine{CacheElems: cfg.Elems(elemSize), LineElems: cfg.LineBytes / elemSize}
}

// JacobiOrigMissRate predicts the untiled 3D Jacobi L1 miss rate
// (percent) for an N x N x M problem under write-around caching, where
// stores always miss. Per interior point there are 6 loads and 1 store.
//
// Reuse regimes for the loads, per cache line of L points:
//   - B(i,j,k+1) leads its plane: 1 miss per line, always.
//   - B(i,j,k-1) and B(i,j±1,k) reuse data loaded one or two plane/row
//     sweeps earlier. Plane reuse needs 2 N^2 elements resident
//     (Section 1); row reuse needs the ~8 rows the two intervening
//     J iterations touch, about 8N elements.
func (m Machine) JacobiOrigMissRate(n int) float64 {
	perLine := 1.0 // leading K+1 reference
	if 2*n*n > m.CacheElems {
		perLine += 2 // K-1 and the row last touched from plane K-1
	}
	if 8*n > m.CacheElems {
		perLine++ // J-1 reference: row reuse lost too
	}
	loadsMissPerPoint := perLine / float64(m.LineElems)
	const accesses = 7.0
	return 100 * (loadsMissPerPoint + 1 /* store */) / accesses
}

// JacobiTiledMissRate predicts the tiled 3D Jacobi L1 miss rate (percent)
// for an iteration tile (ti, tj), assuming the tile was chosen
// conflict-free: the cost model gives elements fetched per iteration,
// (TI+2)(TJ+2)/(TI*TJ), of which one line miss per L elements; the store
// still always misses under write-around.
func (m Machine) JacobiTiledMissRate(ti, tj int) float64 {
	cost := float64(ti+2) * float64(tj+2) / (float64(ti) * float64(tj))
	loadsMissPerPoint := cost / float64(m.LineElems)
	const accesses = 7.0
	return 100 * (loadsMissPerPoint + 1) / accesses
}

// jacobi2DOrigMissRate predicts the untiled 2D Jacobi miss rate
// (percent): 4 loads and 1 store per point; the J+1 leading reference
// misses once per line and the others hit as long as two columns fit
// (Section 1's 2D argument).
func (m Machine) jacobi2DOrigMissRate(n int) float64 {
	perLine := 1.0
	if 2*n > m.CacheElems {
		perLine += 2 // column reuse lost: J-1 and one of the i-neighbors' rows
	}
	const accesses = 5.0
	return 100 * (perLine/float64(m.LineElems) + 1) / accesses
}

// reuseBoundary3D returns the largest N whose two N x N planes fit:
// sqrt(C_s / 2), the paper's Section 1 threshold.
func (m Machine) reuseBoundary3D() int {
	n := 0
	for (n+1)*(n+1)*2 <= m.CacheElems {
		n++
	}
	return n
}

// pathologicalJacobi3D predicts whether problem size n severely spikes
// the untiled 3D stencil's conflict misses on a direct-mapped cache of
// m.CacheElems: the K+/-1 plane rows land almost exactly on the current
// rows when N^2 mod C_s (or its complement) is much smaller than a row,
// so the five row streams evict each other on nearly every access. These
// are the spikes in the Orig curves of Figures 14/16/18 that padding
// removes. Mild overlap (offset below N but not tiny) elevates the rate
// without a full spike; the threshold N/8 separates the regimes.
func (m Machine) pathologicalJacobi3D(n int) bool {
	d := (n * n) % m.CacheElems
	if d > m.CacheElems/2 {
		d = m.CacheElems - d
	}
	return d < n/8
}

// pathologicalSizes lists the predicted spike sizes in [lo, hi].
func (m Machine) pathologicalSizes(lo, hi int) []int {
	var out []int
	for n := lo; n <= hi; n++ {
		if m.pathologicalJacobi3D(n) {
			out = append(out, n)
		}
	}
	return out
}

// tiledSpeedupEstimate predicts the ratio of untiled to tiled execution
// time under a simple model where every L1 miss costs penalty cycles and
// every access costs one: the first-order version of bench.CycleModel.
func (m Machine) tiledSpeedupEstimate(n, ti, tj int, penalty float64) float64 {
	orig := m.JacobiOrigMissRate(n) / 100
	tiled := m.JacobiTiledMissRate(ti, tj) / 100
	return (1 + orig*penalty) / (1 + tiled*penalty)
}

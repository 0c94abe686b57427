package core

import (
	"fmt"
	"math"
)

// Stencil describes the data footprint of a tiled stencil loop nest, the
// inputs the selection algorithms need: how much larger the array tile is
// than the iteration tile in each of the two tiled dimensions (the paper's
// m and n, set by the largest subscript differences), and how many array
// planes must stay cached (the array tile depth, ATD).
type Stencil struct {
	// TrimI is m: array-tile I extent minus iteration-tile I extent.
	// For a +/-1 stencil in I (Jacobi, RESID) this is 2.
	TrimI int
	// TrimJ is n, the same for the J dimension.
	TrimJ int
	// Depth is ATD, the number of array planes the tile spans. A +/-1
	// stencil in K needs 3; the fused red-black nest, which updates two
	// planes per outer step, needs 4.
	Depth int
}

// Validate checks the stencil spec: non-negative trims and a positive
// array-tile depth.
func (s Stencil) Validate() error {
	if s.TrimI < 0 || s.TrimJ < 0 || s.Depth < 1 {
		return fmt.Errorf("core: invalid stencil %+v (trims must be >= 0, depth >= 1)", s)
	}
	return nil
}

// validate is the internal-invariant form: the selection algorithms call
// it on specs that SelectChecked (or the kernels' fixed specs) have
// already vetted, so a failure here is a programming error.
func (s Stencil) validate() {
	if err := s.Validate(); err != nil {
		panic(err)
	}
}

// Jacobi6pt is the stencil spec of the 3D Jacobi kernel (Figure 3): a
// six-point +/-1 stencil, array tile (TI'+2) x (TJ'+2) x 3.
func Jacobi6pt() Stencil { return Stencil{TrimI: 2, TrimJ: 2, Depth: 3} }

// Resid27pt is the stencil spec of the RESID kernel from MGRID
// (Figure 13): the full 27-point stencil, which still reaches only +/-1 in
// each dimension, so the array tile is (TI'+2) x (TJ'+2) x 3.
func Resid27pt() Stencil { return Stencil{TrimI: 2, TrimJ: 2, Depth: 3} }

// RedBlackFused is the stencil spec of the fused red-black SOR nest
// (Figure 12): updates sweep two adjacent planes per outer iteration, so
// four array planes must stay cached.
func RedBlackFused() Stencil { return Stencil{TrimI: 2, TrimJ: 2, Depth: 4} }

// Tile is an iteration tile: the strip-mine factors of the I and J loops.
type Tile struct {
	TI, TJ int
}

func (t Tile) String() string { return fmt.Sprintf("(TI=%d, TJ=%d)", t.TI, t.TJ) }

// Valid reports whether both extents are positive.
func (t Tile) Valid() bool { return t.TI > 0 && t.TJ > 0 }

// ArrayTile is the block of array elements an iteration tile touches.
type ArrayTile struct {
	TI, TJ, TK int
}

func (t ArrayTile) String() string {
	return fmt.Sprintf("(TI=%d, TJ=%d, TK=%d)", t.TI, t.TJ, t.TK)
}

// elems returns the tile volume in elements.
func (t ArrayTile) elems() int { return t.TI * t.TJ * t.TK }

// Trim converts an array tile to the iteration tile it supports under st.
// The result may be invalid (non-positive extents) for pathologically thin
// array tiles; Cost returns +Inf for those, which discards them exactly as
// the paper prescribes.
func (t ArrayTile) Trim(st Stencil) Tile {
	return Tile{TI: t.TI - st.TrimI, TJ: t.TJ - st.TrimJ}
}

// Cost is the paper's tile cost model (Section 2.3): the number of
// distinct array elements fetched per iteration executed,
// (TI+m)(TJ+n)/(TI*TJ) for an iteration tile (TI, TJ). Lower is better;
// square tiles minimize it for a fixed volume. Non-positive tiles cost
// +Inf, which is how trimmed-away candidates are discarded.
func Cost(t Tile, st Stencil) float64 {
	if t.TI <= 0 || t.TJ <= 0 {
		return math.Inf(1)
	}
	return float64(t.TI+st.TrimI) * float64(t.TJ+st.TrimJ) / (float64(t.TI) * float64(t.TJ))
}

// Plan is the output of a selection method: the iteration tile to use and
// the (possibly padded) lower array dimensions.
type Plan struct {
	// Tile is the iteration tile; zero-valued (invalid) when the method
	// does not tile (Orig, GcdPadNT).
	Tile Tile
	// DI, DJ are the array's lower allocated dimensions after padding;
	// equal to the inputs when the method does not pad.
	DI, DJ int
	// Tiled reports whether the loop nest should be tiled.
	Tiled bool
	// Cost is the cost-model value of Tile (+Inf when not tiled).
	Cost float64
}

// padI returns the number of elements of padding added to DI.
func (p Plan) padI(origDI int) int { return p.DI - origDI }

// padJ returns the number of elements of padding added to DJ.
func (p Plan) padJ(origDJ int) int { return p.DJ - origDJ }

// Package grid provides Fortran-style column-major 2D and 3D arrays of
// float64 with explicitly padded leading dimensions.
//
// The paper's transformations (GcdPad, Pad) work by enlarging the allocated
// leading dimensions of an array while the computation touches only the
// logical extent. Grid3D therefore distinguishes the logical extents
// (NI, NJ, NK) from the allocated dimensions (DI, DJ): element (i, j, k)
// lives at flat index i + j*DI + k*DI*DJ, exactly the address arithmetic a
// Fortran compiler would emit for A(DI, DJ, *). Keeping the arithmetic
// explicit lets the cache simulator observe the same address stream the
// paper's simulated machine saw.
package grid

import (
	"fmt"
	"math"
)

// ElemSize is the size in bytes of one array element (double precision).
const ElemSize = 8

// Grid3D is a 3D array of float64 stored in column-major order with padded
// leading dimensions. The zero value is not usable; construct with New3D or
// New3DPadded, or place one inside an Arena.
type Grid3D struct {
	// NI, NJ, NK are the logical extents: the computation indexes
	// 0 <= i < NI, 0 <= j < NJ, 0 <= k < NK.
	NI, NJ, NK int
	// DI, DJ are the allocated leading dimensions (DI >= NI, DJ >= NJ).
	// Padding an array means DI > NI and/or DJ > NJ.
	DI, DJ int
	// Data holds DI*DJ*NK elements.
	Data []float64
	// base is the element offset of element (0,0,0) from the start of the
	// arena this grid lives in (zero for standalone grids). It feeds the
	// cache simulator so that distinct arrays occupy distinct, realistic
	// address ranges.
	base int64
}

// Check3D validates 3D grid extents: positive logical extents and
// allocated leading dimensions no smaller than the logical ones.
func Check3D(ni, nj, nk, di, dj int) error {
	if ni <= 0 || nj <= 0 || nk <= 0 {
		return fmt.Errorf("grid: non-positive extent %dx%dx%d", ni, nj, nk)
	}
	if di < ni || dj < nj {
		return fmt.Errorf("grid: padded dims %dx%d smaller than logical %dx%d", di, dj, ni, nj)
	}
	return nil
}

// New3D allocates an unpadded NI x NJ x NK grid. It panics on
// non-positive extents (a programmer error in test and example code, the
// only place unchecked literal extents appear); validated construction
// goes through New3DPadded.
func New3D(ni, nj, nk int) *Grid3D {
	return Must3DPadded(ni, nj, nk, ni, nj) //lint:allow mustcheck -- documented panic-on-bad-extents constructor
}

// New3DPadded allocates an NI x NJ x NK grid with allocated leading
// dimensions DI x DJ, returning an error for non-positive extents or
// padded dimensions smaller than the logical ones.
func New3DPadded(ni, nj, nk, di, dj int) (*Grid3D, error) {
	if err := Check3D(ni, nj, nk, di, dj); err != nil {
		return nil, err
	}
	return &Grid3D{
		NI: ni, NJ: nj, NK: nk,
		DI: di, DJ: dj,
		Data: make([]float64, di*dj*nk),
	}, nil
}

// Must3DPadded is New3DPadded for extents already validated upstream (a
// selection Plan, a vetted Options sweep); it panics on invalid input.
func Must3DPadded(ni, nj, nk, di, dj int) *Grid3D {
	g, err := New3DPadded(ni, nj, nk, di, dj)
	if err != nil {
		panic(err)
	}
	return g
}

// New3DShape builds a grid with layout but no element storage: Addr,
// Index and arena placement work, Data is nil. Trace-driven simulation
// only needs the address arithmetic, so shape-only grids let a large
// sweep cell skip allocating and zeroing N^3 float64s. Accessor methods
// that touch Data panic.
func New3DShape(ni, nj, nk, di, dj int) (*Grid3D, error) {
	if err := Check3D(ni, nj, nk, di, dj); err != nil {
		return nil, err
	}
	return &Grid3D{NI: ni, NJ: nj, NK: nk, DI: di, DJ: dj}, nil
}

// Must3DShape is New3DShape for pre-validated extents; it panics on
// invalid input.
func Must3DShape(ni, nj, nk, di, dj int) *Grid3D {
	g, err := New3DShape(ni, nj, nk, di, dj)
	if err != nil {
		panic(err)
	}
	return g
}

// Index returns the flat index of element (i, j, k).
func (g *Grid3D) Index(i, j, k int) int {
	return i + g.DI*(j+g.DJ*k)
}

// Addr returns the element address of (i, j, k) relative to the arena the
// grid lives in. Multiply by ElemSize for a byte address.
func (g *Grid3D) Addr(i, j, k int) int64 {
	return g.base + int64(g.Index(i, j, k))
}

// Base returns the element offset of the grid within its arena.
func (g *Grid3D) Base() int64 { return g.base }

// At returns element (i, j, k).
func (g *Grid3D) At(i, j, k int) float64 { return g.Data[g.Index(i, j, k)] }

// Set stores v into element (i, j, k).
func (g *Grid3D) Set(i, j, k int, v float64) { g.Data[g.Index(i, j, k)] = v }

// Elems returns the number of allocated elements, including padding.
func (g *Grid3D) Elems() int { return g.DI * g.DJ * g.NK }

// Fill sets every allocated element (padding included) to v.
func (g *Grid3D) Fill(v float64) {
	for idx := range g.Data {
		g.Data[idx] = v
	}
}

// FillFunc sets every logical element to f(i, j, k). Padding elements are
// left untouched.
func (g *Grid3D) FillFunc(f func(i, j, k int) float64) {
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			row := g.Index(0, j, k)
			for i := 0; i < g.NI; i++ {
				g.Data[row+i] = f(i, j, k)
			}
		}
	}
}

// Clone returns a deep copy of the grid, preserving padding and arena base.
func (g *Grid3D) Clone() *Grid3D {
	c := *g
	c.Data = make([]float64, len(g.Data))
	copy(c.Data, g.Data)
	return &c
}

// CopyLogical copies the logical extent of src into g. The two grids must
// have identical logical extents; paddings may differ. This is how a
// padded "optimized" array is initialized from an unpadded "original" one.
func (g *Grid3D) CopyLogical(src *Grid3D) {
	if g.NI != src.NI || g.NJ != src.NJ || g.NK != src.NK {
		panic(fmt.Sprintf("grid: logical extent mismatch %dx%dx%d vs %dx%dx%d",
			g.NI, g.NJ, g.NK, src.NI, src.NJ, src.NK))
	}
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			d := g.Index(0, j, k)
			s := src.Index(0, j, k)
			copy(g.Data[d:d+g.NI], src.Data[s:s+src.NI])
		}
	}
}

// MaxAbsDiff returns the maximum absolute difference between the logical
// elements of g and other, which must have identical logical extents.
func (g *Grid3D) MaxAbsDiff(other *Grid3D) float64 {
	if g.NI != other.NI || g.NJ != other.NJ || g.NK != other.NK {
		panic("grid: logical extent mismatch")
	}
	var m float64
	for k := 0; k < g.NK; k++ {
		for j := 0; j < g.NJ; j++ {
			for i := 0; i < g.NI; i++ {
				d := math.Abs(g.At(i, j, k) - other.At(i, j, k))
				if d > m {
					m = d
				}
			}
		}
	}
	return m
}

// String describes the grid's shape.
func (g *Grid3D) String() string {
	return fmt.Sprintf("Grid3D %dx%dx%d (alloc %dx%dx%d, base %d)",
		g.NI, g.NJ, g.NK, g.DI, g.DJ, g.NK, g.base)
}

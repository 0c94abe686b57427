package grid

import "fmt"

// Grid2D is the layout of a 2D array of float64 stored in column-major
// order with a padded leading dimension: extents and arena placement,
// no element storage. It backs the paper's Section 1 motivation
// experiments, which contrast 2D and 3D stencil reuse by tracing the
// grids' addresses, never their values.
type Grid2D struct {
	// NI, NJ are the logical extents.
	NI, NJ int
	// DI is the leading dimension (DI >= NI).
	DI   int
	base int64
}

// Check2D validates 2D grid extents.
func Check2D(ni, nj, di int) error {
	if ni <= 0 || nj <= 0 {
		return fmt.Errorf("grid: non-positive extent %dx%d", ni, nj)
	}
	if di < ni {
		return fmt.Errorf("grid: padded dim %d smaller than logical %d", di, ni)
	}
	return nil
}

// New2D builds an unpadded NI x NJ grid. Like New3D it panics on
// non-positive extents; validated construction goes through New2DPadded.
func New2D(ni, nj int) *Grid2D { return Must2DPadded(ni, nj, ni) } //lint:allow mustcheck -- documented panic-on-bad-extents constructor

// New2DPadded builds an NI x NJ grid with leading dimension DI,
// returning an error for invalid extents.
func New2DPadded(ni, nj, di int) (*Grid2D, error) {
	if err := Check2D(ni, nj, di); err != nil {
		return nil, err
	}
	return &Grid2D{NI: ni, NJ: nj, DI: di}, nil
}

// Must2DPadded is New2DPadded for pre-validated extents; it panics on
// invalid input.
func Must2DPadded(ni, nj, di int) *Grid2D {
	g, err := New2DPadded(ni, nj, di)
	if err != nil {
		panic(err)
	}
	return g
}

// Base returns the element offset of the grid within its arena.
func (g *Grid2D) Base() int64 { return g.base }

// Elems returns the number of elements the layout spans, including
// padding.
func (g *Grid2D) Elems() int { return g.DI * g.NJ }

package grid

// Arena lays out several grids in a single simulated address space, the way
// a Fortran compiler lays out COMMON blocks or consecutive allocations.
// Cross-interference between arrays (Section 3.5 of the paper) depends on
// their relative base addresses, so the trace-driven experiments place all
// arrays of a kernel in one arena.
//
// The arena only assigns addresses; each grid still owns its float64
// storage. An optional inter-variable gap (in elements) can be inserted
// between consecutive arrays to model inter-variable padding.
type Arena struct {
	next int64
}

type addressed interface {
	setBase(int64)
	elems() int
}

func (g *Grid3D) setBase(b int64) { g.base = b }
func (g *Grid3D) elems() int      { return g.Elems() }
func (g *Grid2D) setBase(b int64) { g.base = b }
func (g *Grid2D) elems() int      { return g.Elems() }

// NewArena returns an empty arena starting at element address 0.
func NewArena() *Arena { return &Arena{} }

// Place assigns the next free address range to g and advances the arena
// cursor past it.
func (a *Arena) Place(g *Grid3D) *Grid3D {
	a.place(g)
	return g
}

// Place2D assigns the next free address range to g.
func (a *Arena) Place2D(g *Grid2D) *Grid2D {
	a.place(g)
	return g
}

func (a *Arena) place(g addressed) {
	g.setBase(a.next)
	a.next += int64(g.elems())
}

// Gap inserts n unused elements between the previous and next placement,
// modeling inter-variable padding.
func (a *Arena) Gap(n int) {
	a.next += int64(n)
}

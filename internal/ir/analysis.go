package ir

import (
	"fmt"

	"tiling3d/internal/core"
)

// RefGroup describes the references to one array: the subscript spread
// (max minus min constant offset) per array dimension among references
// whose subscripts all have the form loopVar + const.
type RefGroup struct {
	Array  string
	Loads  int
	Stores int
	// Spread[d] is the reach of the reference group in array dimension d.
	Spread []int
	// Dim is the number of array dimensions.
	Dim int
}

// Analyze derives a core.Stencil from the loop nest, the way the paper's
// compiler derives the cost function "directly from the loop nest"
// (Sections 2.2–2.3): the trims m and n are the subscript spreads of the
// most-referenced (dominant) array in the two inner dimensions, and the
// array tile depth is the spread in the outermost dimension plus one.
// It returns an error when a subscript is not of the loopVar+const form
// the analysis (and the paper) assumes.
func Analyze(n *Nest) (core.Stencil, error) {
	g, err := DominantGroup(n)
	if err != nil {
		return core.Stencil{}, err
	}
	if g.Dim != 3 {
		return core.Stencil{}, fmt.Errorf("ir: dominant array %s is %dD, need 3D", g.Array, g.Dim)
	}
	return core.Stencil{
		TrimI: g.Spread[0],
		TrimJ: g.Spread[1],
		Depth: g.Spread[2] + 1,
	}, nil
}

// Groups computes the RefGroup of every array in the nest, in first-use
// order.
func Groups(n *Nest) ([]RefGroup, error) {
	var order []string
	byName := map[string]*RefGroup{}
	for _, r := range n.Body {
		g := byName[r.Array]
		if g == nil {
			g = &RefGroup{Array: r.Array, Dim: len(r.Subs), Spread: make([]int, len(r.Subs))}
			byName[r.Array] = g
			order = append(order, r.Array)
		}
		if g.Dim != len(r.Subs) {
			return nil, fmt.Errorf("ir: array %s referenced with %d and %d subscripts", r.Array, g.Dim, len(r.Subs))
		}
		if r.Store {
			g.Stores++
		} else {
			g.Loads++
		}
	}
	for name, g := range byName {
		for d := 0; d < g.Dim; d++ {
			lo, hi, err := offsetRange(n, name, d)
			if err != nil {
				return nil, err
			}
			g.Spread[d] = hi - lo
		}
	}
	out := make([]RefGroup, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out, nil
}

// DominantGroup returns the group with the most references — the array
// whose group reuse the tiling preserves (U in RESID, B in Jacobi).
func DominantGroup(n *Nest) (RefGroup, error) {
	gs, err := Groups(n)
	if err != nil {
		return RefGroup{}, err
	}
	if len(gs) == 0 {
		return RefGroup{}, fmt.Errorf("ir: empty body")
	}
	best := gs[0]
	for _, g := range gs[1:] {
		if g.Loads+g.Stores > best.Loads+best.Stores {
			best = g
		}
	}
	return best, nil
}

// offsetRange returns the min and max constant offsets of array's
// subscripts in dimension d, verifying each is loopVar+const with a
// consistent loop variable per dimension.
func offsetRange(n *Nest, array string, d int) (lo, hi int, err error) {
	first := true
	baseVar := ""
	for _, r := range n.Body {
		if r.Array != array {
			continue
		}
		e := r.Subs[d]
		v, c, ok := AsVarPlusConst(e)
		if !ok {
			return 0, 0, fmt.Errorf("ir: %s dim %d subscript %q is not loopVar+const%s", array, d, e, atPos(r.Pos))
		}
		if first {
			baseVar, lo, hi, first = v, c, c, false
			continue
		}
		if v != baseVar {
			return 0, 0, fmt.Errorf("ir: %s dim %d indexed by both %s and %s%s", array, d, baseVar, v, atPos(r.Pos))
		}
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if first {
		return 0, 0, fmt.Errorf("ir: array %s not referenced", array)
	}
	return lo, hi, nil
}

// atPos renders " (at line:col)" for diagnostics, or "" when the
// reference has no source position.
func atPos(p Pos) string {
	if !p.IsValid() {
		return ""
	}
	return fmt.Sprintf(" (at %s)", p)
}

// AsVarPlusConst decomposes e as loopVar+const: a single variable with
// coefficient 1 plus a constant. ok is false for any other form.
func AsVarPlusConst(e Expr) (v string, c int, ok bool) {
	nvars := 0
	for name, coeff := range e.Coeff {
		if coeff == 0 {
			continue
		}
		if coeff != 1 {
			return "", 0, false
		}
		v = name
		nvars++
	}
	if nvars != 1 {
		return "", 0, false
	}
	return v, e.Const, true
}

// AsScaledVarPlusConst decomposes e as coeff*loopVar+const: a single
// variable with any nonzero coefficient plus a constant. It generalizes
// AsVarPlusConst for the grid-transfer subscripts (2*I+d) of multigrid
// restriction and prolongation. ok is false for constants and
// multi-variable expressions.
func AsScaledVarPlusConst(e Expr) (v string, coeff, c int, ok bool) {
	nvars := 0
	for name, co := range e.Coeff {
		if co == 0 {
			continue
		}
		v, coeff = name, co
		nvars++
	}
	if nvars != 1 {
		return "", 0, 0, false
	}
	return v, coeff, e.Const, true
}

// dependenceDistances returns the distance vectors (indexed by loop
// position, outermost first) between every store and every other
// reference to the same array: the number of iterations of each loop
// separating the write from the read. Distance vectors drive the
// legality checks in the transform package. An error is returned for
// subscript forms outside the loopVar+const model.
func dependenceDistances(n *Nest) ([][]int, error) {
	var out [][]int
	for si, s := range n.Body {
		if !s.Store {
			continue
		}
		for ri, r := range n.Body {
			if ri == si || r.Array != s.Array {
				continue
			}
			d, ok, err := distance(n, s, r)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, d)
			}
		}
	}
	return out, nil
}

// distance computes the per-loop iteration distance between two
// references: the store at iteration i touches the element the other
// reference touches at iteration i+d.
func distance(n *Nest, store, other Ref) ([]int, bool, error) {
	d := make([]int, len(n.Loops))
	for dim := range store.Subs {
		sv, sc, ok1 := AsVarPlusConst(store.Subs[dim])
		ov, oc, ok2 := AsVarPlusConst(other.Subs[dim])
		if !ok1 || !ok2 {
			return nil, false, fmt.Errorf("ir: non-affine subscript in dependence test")
		}
		if sv != ov {
			return nil, false, nil // different index spaces: no uniform dependence
		}
		li := n.LoopIndex(sv)
		if li < 0 {
			return nil, false, fmt.Errorf("ir: subscript variable %s is not a loop", sv)
		}
		d[li] = sc - oc
	}
	return d, true, nil
}

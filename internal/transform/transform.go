// Package transform implements the loop transformations the paper's
// optimization applies to a stencil nest: strip-mining, loop interchange,
// and the combined tiling transformation of Section 2.2 (strip-mine the
// two inner loops, move the tile-controlling loops outermost), driven by
// a tile plan from the selection algorithms in internal/core.
//
// Legality rests on the shared dependence table of internal/deps:
// Interchange keeps every oriented distance vector lexicographically
// non-negative under the permutation, and TileInner2 requires a nest
// with no loop-carried dependences at all (tile boundaries reorder
// iterations arbitrarily). The paper's kernels carry nothing within a
// sweep (they write arrays they do not read), so tiling is always legal
// there; the checks exist so the driver refuses nests where it would
// not be, with diagnostics naming the violated dependence.
package transform

import (
	"fmt"

	"tiling3d/internal/core"
	"tiling3d/internal/deps"
	"tiling3d/internal/ir"
)

// StripMine splits the named loop into a tile-controlling loop (named
// tileName) with step = factor and an element loop that walks one tile,
// clamped to the original bounds: the textbook transformation
//
//	do J = lo, hi            do JJ = lo, hi, TJ
//	  body          =>         do J = JJ, min(JJ+TJ-1, hi)
//	                             body
func StripMine(n *ir.Nest, loopName, tileName string, factor int) (*ir.Nest, error) {
	if factor < 1 {
		return nil, fmt.Errorf("transform: strip-mine factor %d < 1", factor)
	}
	idx := n.LoopIndex(loopName)
	if idx < 0 {
		return nil, fmt.Errorf("transform: no loop %q", loopName)
	}
	if n.LoopIndex(tileName) >= 0 {
		return nil, fmt.Errorf("transform: loop %q already exists", tileName)
	}
	out := n.Clone()
	tile, elem, err := stripLoop(out.Loops[idx], tileName, factor)
	if err != nil {
		return nil, err
	}
	loops := make([]ir.Loop, 0, len(out.Loops)+1)
	loops = append(loops, out.Loops[:idx]...)
	loops = append(loops, tile, elem)
	loops = append(loops, out.Loops[idx+1:]...)
	out.Loops = loops
	return out, nil
}

// stripLoop splits one unit-step loop into its tile-controlling loop
// and its element loop. The two share orig's upper-bound expressions.
func stripLoop(orig ir.Loop, tileName string, factor int) (tile, elem ir.Loop, err error) {
	if orig.Step != 1 {
		return tile, elem, fmt.Errorf("transform: strip-mining non-unit-step loop %q", orig.Name)
	}
	tile = ir.Loop{Name: tileName, Lo: orig.Lo, Hi: orig.Hi, Step: factor}
	elem = ir.Loop{
		Name: orig.Name,
		Lo:   ir.BoundOf(ir.Var(tileName, 0)),
		Hi:   ir.BoundOf(append([]ir.Expr{ir.Var(tileName, factor-1)}, orig.Hi.Exprs...)...),
		Step: 1,
	}
	return tile, elem, nil
}

// Interchange reorders the nest's loops into the given permutation of
// loop names (outermost first), refusing illegal permutations. A loop may
// only move outside a loop its bounds reference if that loop stays
// enclosing, so bound variables are validated too.
func Interchange(n *ir.Nest, order []string) (*ir.Nest, error) {
	if len(order) != len(n.Loops) {
		return nil, fmt.Errorf("transform: permutation names %d loops, nest has %d", len(order), len(n.Loops))
	}
	perm := make([]int, len(order)) // perm[newPos] = oldPos
	seen := map[string]bool{}
	for newPos, name := range order {
		old := n.LoopIndex(name)
		if old < 0 {
			return nil, fmt.Errorf("transform: no loop %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("transform: loop %q repeated", name)
		}
		seen[name] = true
		perm[newPos] = old
	}
	if err := checkPermutationLegal(n, perm); err != nil {
		return nil, err
	}
	out := n.Clone()
	loops := make([]ir.Loop, len(order))
	for newPos, old := range perm {
		loops[newPos] = out.Loops[old]
	}
	if err := checkBoundsEnclosed(loops); err != nil {
		return nil, err
	}
	out.Loops = loops
	return out, nil
}

// checkBoundsEnclosed requires every loop's bounds to use only the
// variables of loops that enclose it.
func checkBoundsEnclosed(loops []ir.Loop) error {
	for newPos, l := range loops {
		enclosing := map[string]bool{}
		for p := 0; p < newPos; p++ {
			enclosing[loops[p].Name] = true
		}
		for _, e := range append(append([]ir.Expr{}, l.Lo.Exprs...), l.Hi.Exprs...) {
			for v, c := range e.Coeff {
				if c != 0 && !enclosing[v] {
					return fmt.Errorf("transform: loop %q bound uses %q which would no longer enclose it", l.Name, v)
				}
			}
		}
	}
	return nil
}

// checkPermutationLegal consults the dependence table: a permutation is
// legal when every oriented distance vector stays lexicographically
// non-negative in the new loop order. Unknown dependences (subscripts
// the analyzer cannot model) conservatively block.
func checkPermutationLegal(n *ir.Nest, perm []int) error {
	tab, err := deps.Dependences(n)
	if err != nil {
		return err
	}
	for _, d := range tab.Deps {
		if d.Unknown {
			return fmt.Errorf("transform: %s blocks interchange", d)
		}
		if d.PermutedSign(perm) < 0 {
			return fmt.Errorf("transform: permutation reverses %s", d)
		}
	}
	return nil
}

// TileInner2 applies the paper's tiling transformation (Section 2.2,
// Figure 6) to a 3-deep nest with loops (outer, middle, inner) =
// (K, J, I): strip-mine J by tile.TJ and I by tile.TI, then move the
// tile-controlling loops JJ and II outermost, yielding
// JJ, II, K, J, I. Loop names are taken from the nest. It is built from
// one clone and equals StripMine twice followed by Interchange whenever
// that composition succeeds. It also accepts one nest the composition
// refuses: a J or I loop that runs at most one iteration and that a
// dependence does not constrain. Interchange's analysis of the
// strip-mined nest cannot see that the element loop's symbolic bounds
// admit at most one iteration, so it reports the dependence as unknown.
func TileInner2(n *ir.Nest, tile core.Tile) (*ir.Nest, error) {
	if len(n.Loops) != 3 {
		return nil, fmt.Errorf("transform: TileInner2 needs a 3-deep nest, got %d", len(n.Loops))
	}
	if !tile.Valid() {
		return nil, fmt.Errorf("transform: invalid tile %v", tile)
	}
	// Tiling reorders iterations arbitrarily across the JJ/II tile
	// boundaries, so it is applied only to nests with no loop-carried
	// dependences at all (true of the paper's kernels, which never read
	// the array they write within a sweep). Distance vectors over
	// strip-mined loops are not constant, so the finer-grained
	// Interchange check cannot be reused here; deps.Certify re-proves
	// the composed result from exact distances plus tile intervals.
	// The same refusal settles the interchange: every remaining distance
	// is zero, strip-mining leaves zero distances zero, and no loop order
	// reverses a zero vector, so the strip-mined nest needs no second
	// dependence analysis (it would only add the spurious unknown of the
	// at-most-one-iteration case above).
	tab, err := deps.Dependences(n)
	if err != nil {
		return nil, err
	}
	if carried := tab.Carried(); len(carried) > 0 {
		return nil, fmt.Errorf("transform: nest carries %s; tiling refused", carried[0])
	}
	jj, ii := n.Loops[1].Name+n.Loops[1].Name, n.Loops[2].Name+n.Loops[2].Name
	for _, name := range []string{jj, ii} {
		if n.LoopIndex(name) >= 0 {
			return nil, fmt.Errorf("transform: loop %q already exists", name)
		}
	}
	out := n.Clone()
	jTile, jElem, err := stripLoop(out.Loops[1], jj, tile.TJ)
	if err != nil {
		return nil, err
	}
	iTile, iElem, err := stripLoop(out.Loops[2], ii, tile.TI)
	if err != nil {
		return nil, err
	}
	out.Loops = []ir.Loop{jTile, iTile, out.Loops[0], jElem, iElem}
	if err := checkBoundsEnclosed(out.Loops); err != nil {
		return nil, err
	}
	return out, nil
}

// ApplyPlan transforms the nest according to a selection plan: the
// identity for untiled plans, TileInner2 otherwise. (Padding lives in the
// array layout, not in the nest.)
func ApplyPlan(n *ir.Nest, plan core.Plan) (*ir.Nest, error) {
	if !plan.Tiled {
		return n.Clone(), nil
	}
	return TileInner2(n, plan.Tile)
}

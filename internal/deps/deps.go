// Package deps is the dependence-and-reuse analyzer for the loop-nest
// IR: the single legality abstraction behind every transformation in
// internal/transform.
//
// For every pair of references to the same array with at least one
// store it computes the constant distance vector in loop-nest order
// (outermost first), orients it from the access that executes first
// (the source) to the one that executes later (the sink), and
// classifies it: store→load is a flow (true) dependence, load→store is
// an anti dependence, store→store is an output dependence. Distances
// the iteration space cannot realize are pruned: a loop of step s only
// separates iterations by multiples of s, and constant-bound loops only
// by at most their trip span — which is how the analyzer proves the
// red-black color pass carries no unit-stride I dependences even though
// the subscripts suggest them.
//
// Subscripts outside the loopVar+const model the paper's kernels use
// (and mixed variable/constant dimensions across a pair) do not abort
// the analysis: they are recorded as Issues, with source positions when
// the nest was parsed, and the affected pairs become Unknown
// dependences that conservatively block any transformation consulting
// the table. A pair whose subscripts leave some loop of the nest
// entirely unconstrained (store A(I,J) under a K loop) aliases at
// *every* realizable distance in that loop — a direction-* component no
// single constant vector can express — so it too becomes an Unknown
// dependence, and a store with such a loop carries an Unknown output
// dependence on itself. The transformations in internal/transform
// (Interchange, TileInner2/ApplyPlan, FuseShifted) all consult this
// table, and Certify re-derives dependences on a transformed nest to
// prove every original dependence still executes source before sink.
package deps

import (
	"fmt"
	"sort"
	"strings"

	"tiling3d/internal/ir"
)

// Kind classifies a dependence by which endpoints write.
type Kind int

const (
	// Flow is store→load: the sink reads what the source wrote.
	Flow Kind = iota
	// Anti is load→store: the sink overwrites what the source read.
	Anti
	// Output is store→store: the sink overwrites the source's value.
	Output
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Dependence is one dependence between two body references of a nest.
// Src and Dst index Nest.Body; the source executes first. Dist is the
// iteration distance per loop (outermost first), lexicographically
// non-negative by construction; nil when Unknown.
type Dependence struct {
	Kind  Kind
	Array string
	Src   int
	Dst   int
	Dist  []int
	// Unknown marks a pair whose distance is not a compile-time
	// constant (subscripts outside the loopVar+const model, or a loop
	// the pair's subscripts leave unconstrained). Unknown dependences
	// conservatively block every transformation.
	Unknown bool
	// Why explains an Unknown dependence when the cause is not already
	// covered by a positioned Issue (the unconstrained-loop case).
	Why string
}

// String renders the dependence with its distance vector, the form the
// transformation diagnostics quote.
func (d Dependence) String() string {
	if d.Unknown {
		if d.Why != "" {
			return fmt.Sprintf("%s %s distance unknown (%s) (#%d -> #%d)", d.Kind, d.Array, d.Why, d.Src, d.Dst)
		}
		return fmt.Sprintf("%s %s distance unknown (#%d -> #%d)", d.Kind, d.Array, d.Src, d.Dst)
	}
	return fmt.Sprintf("%s %s distance %s (#%d -> #%d)", d.Kind, d.Array, distString(d.Dist), d.Src, d.Dst)
}

func distString(dist []int) string {
	parts := make([]string, len(dist))
	for i, v := range dist {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Issue is one subscript the analyzer could not put into the
// loopVar+const model, with its source position when known.
type Issue struct {
	RefIndex int
	Dim      int
	Pos      ir.Pos
	Reason   string
}

func (is Issue) String() string {
	if is.Pos.IsValid() {
		return fmt.Sprintf("%s: body #%d dim %d: %s", is.Pos, is.RefIndex, is.Dim, is.Reason)
	}
	return fmt.Sprintf("body #%d dim %d: %s", is.RefIndex, is.Dim, is.Reason)
}

// Table is the dependence table of one nest.
type Table struct {
	Nest   *ir.Nest
	Deps   []Dependence
	Issues []Issue
}

// HasUnknown reports whether any dependence lacks a constant distance;
// such tables block every transformation.
func (t *Table) HasUnknown() bool {
	for _, d := range t.Deps {
		if d.Unknown {
			return true
		}
	}
	return false
}

// Carried returns the dependences with nonzero distance — the
// loop-carried ones that constrain reordering transformations.
func (t *Table) Carried() []Dependence {
	var out []Dependence
	for _, d := range t.Deps {
		if d.Unknown {
			out = append(out, d)
			continue
		}
		for _, v := range d.Dist {
			if v != 0 {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// String renders the table, one dependence per line, for golden tests
// and stencilvet.
func (t *Table) String() string {
	var b strings.Builder
	names := make([]string, len(t.Nest.Loops))
	for i, l := range t.Nest.Loops {
		names[i] = l.Name
	}
	fmt.Fprintf(&b, "dependences (loop order %s):\n", strings.Join(names, ","))
	if len(t.Deps) == 0 {
		b.WriteString("  none\n")
	}
	for _, d := range t.Deps {
		fmt.Fprintf(&b, "  %-6s %s %s: %s -> %s\n",
			d.Kind, d.Array, depDist(d), refString(t.Nest.Body[d.Src]), refString(t.Nest.Body[d.Dst]))
	}
	return b.String()
}

func depDist(d Dependence) string {
	if d.Unknown {
		return "(?)"
	}
	return distString(d.Dist)
}

// refString renders a reference the way Nest.String does.
func refString(r ir.Ref) string {
	subs := make([]string, len(r.Subs))
	for i, s := range r.Subs {
		subs[i] = s.String()
	}
	op := "load"
	if r.Store {
		op = "store"
	}
	return fmt.Sprintf("%s %s(%s)", op, r.Array, strings.Join(subs, ","))
}

// Dependences computes the dependence table of the nest. The only hard
// error is a structurally malformed nest (an array referenced with
// different subscript counts); everything else degrades into Issues and
// Unknown dependences.
func Dependences(n *ir.Nest) (*Table, error) {
	t := &Table{Nest: n}
	dims := map[string]int{}
	for _, r := range n.Body {
		if d, ok := dims[r.Array]; ok && d != len(r.Subs) {
			return nil, fmt.Errorf("deps: array %s referenced with %d and %d subscripts", r.Array, d, len(r.Subs))
		}
		dims[r.Array] = len(r.Subs)
	}

	seenIssue := map[[2]int]bool{}
	issue := func(refIdx, dim int, reason string) {
		key := [2]int{refIdx, dim}
		if seenIssue[key] {
			return
		}
		seenIssue[key] = true
		t.Issues = append(t.Issues, Issue{RefIndex: refIdx, Dim: dim, Pos: n.Body[refIdx].Pos, Reason: reason})
	}

	// Ref-driven issues: subscripts that are neither a constant nor
	// loopVar+const over an enclosing loop.
	analyzable := make([]bool, len(n.Body))
	for ri, r := range n.Body {
		analyzable[ri] = true
		for dim, s := range r.Subs {
			if len(s.Coeff) == 0 || isConst(s) {
				continue
			}
			v, _, _, ok := ir.AsScaledVarPlusConst(s)
			if !ok {
				issue(ri, dim, fmt.Sprintf("subscript %q is not coeff*loopVar+const", s))
				analyzable[ri] = false
				continue
			}
			if n.LoopIndex(v) < 0 {
				issue(ri, dim, fmt.Sprintf("subscript variable %s is not a loop of the nest", v))
				analyzable[ri] = false
			}
		}
	}

	// si == ri pairs a store with itself: with every loop constrained
	// the distance is the zero vector (no dependence), but a store whose
	// subscripts omit a loop rewrites the same element across that
	// loop's iterations — an output self-dependence.
	for si := 0; si < len(n.Body); si++ {
		for ri := si; ri < len(n.Body); ri++ {
			a, b := n.Body[si], n.Body[ri]
			if a.Array != b.Array || (!a.Store && !b.Store) {
				continue
			}
			if !analyzable[si] || !analyzable[ri] {
				t.Deps = append(t.Deps, unknownDep(a.Array, si, ri, a.Store, b.Store))
				continue
			}
			dist, constrained, status := pairDistance(n, a, b, func(dim, which int, reason string) {
				idx := si
				if which == 1 {
					idx = ri
				}
				issue(idx, dim, reason)
			})
			switch status {
			case pairNone:
				continue
			case pairUnknown:
				t.Deps = append(t.Deps, unknownDep(a.Array, si, ri, a.Store, b.Store))
			case pairConst:
				if !realizable(n, dist) {
					continue
				}
				if free := unconstrainedLoops(n, dist, constrained); len(free) > 0 {
					d := unknownDep(a.Array, si, ri, a.Store, b.Store)
					d.Why = fmt.Sprintf("loop %s unconstrained by the subscripts", strings.Join(free, ","))
					t.Deps = append(t.Deps, d)
					continue
				}
				if si == ri {
					// Fully constrained self-pair: zero distance, no
					// dependence.
					continue
				}
				t.Deps = append(t.Deps, orient(a, b, si, ri, dist))
			}
		}
	}
	return t, nil
}

// unconstrainedLoops returns the loops no subscript pair constrains and
// that can realize a nonzero distance — the direction-* components that
// make a pair's distance non-constant. A strip-mine tile-control loop
// is exempt when its element loop is constrained at distance 0: the
// element value pins the tile value (J in [JJ, JJ+S-1] with JJ stepping
// by S has exactly one JJ per J), so the tile distance is exactly 0 too.
func unconstrainedLoops(n *ir.Nest, dist []int, constrained []bool) []string {
	var free []string
	for li, l := range n.Loops {
		if constrained[li] || !loopCanAdvance(l) {
			continue
		}
		if yi := tileControlElem(n, li); yi >= 0 && constrained[yi] && dist[yi] == 0 {
			continue
		}
		free = append(free, l.Name)
	}
	return free
}

// tileControlElem returns the index of the element loop the loop li
// tile-controls in the exact StripMine shape — the element loop's lower
// bound is the tile variable alone and its upper bound caps at
// tileVar+step-1 — or -1 when li is not a tile-control loop. In that
// shape any element value determines the tile value uniquely.
func tileControlElem(n *ir.Nest, li int) int {
	name, step := n.Loops[li].Name, n.Loops[li].Step
	if step < 1 {
		return -1
	}
	for yi, y := range n.Loops {
		if yi == li || len(y.Lo.Exprs) != 1 {
			continue
		}
		lo := y.Lo.Exprs[0]
		if lo.Const != 0 || lo.Coeff[name] != 1 || !soleCoeff(lo, name) {
			continue
		}
		for _, e := range y.Hi.Exprs {
			if e.Coeff[name] == 1 && e.Const == step-1 && soleCoeff(e, name) {
				return yi
			}
		}
	}
	return -1
}

// soleCoeff reports whether name is the only variable with a nonzero
// coefficient in e.
func soleCoeff(e ir.Expr, name string) bool {
	for v, c := range e.Coeff {
		if c != 0 && v != name {
			return false
		}
	}
	return true
}

// loopCanAdvance reports whether the loop can execute two distinct
// iterations, i.e. whether a pair unconstrained in it can be separated
// by a nonzero distance. Non-constant bounds conservatively count as
// advancing.
func loopCanAdvance(l ir.Loop) bool {
	lo, hi, ok := constBounds(l)
	if !ok {
		return true
	}
	step := l.Step
	if step < 1 {
		step = 1
	}
	return lo+step <= hi
}

func isConst(e ir.Expr) bool {
	for _, c := range e.Coeff {
		if c != 0 {
			return false
		}
	}
	return true
}

func unknownDep(array string, si, ri int, aStore, bStore bool) Dependence {
	// Orientation is unknown; report in program order.
	return Dependence{Kind: kindOf(aStore, bStore), Array: array, Src: si, Dst: ri, Unknown: true}
}

func kindOf(srcStore, dstStore bool) Kind {
	switch {
	case srcStore && dstStore:
		return Output
	case srcStore:
		return Flow
	default:
		return Anti
	}
}

type pairStatus int

const (
	pairNone pairStatus = iota // the refs never touch a common element
	pairConst
	pairUnknown
)

// pairDistance computes the raw per-loop distance between a and b: b's
// iteration minus a's for a common element. status pairNone means the
// subscripts can never match; pairUnknown means the distance is not a
// single constant vector. constrained marks the loops some subscript
// pair actually pins; components of unconstrained loops are reported as
// 0 — the *nearest* alias, which is what reuse analysis wants, while
// Dependences treats such loops as direction-* via unconstrainedLoops.
func pairDistance(n *ir.Nest, a, b ir.Ref, report func(dim, which int, reason string)) (dist []int, constrained []bool, status pairStatus) {
	dist = make([]int, len(n.Loops))
	set := make([]bool, len(n.Loops))
	unknown := false
	for dim := range a.Subs {
		as, bs := a.Subs[dim], b.Subs[dim]
		aConst, bConst := isConst(as), isConst(bs)
		switch {
		case aConst && bConst:
			if as.Const != bs.Const {
				return nil, nil, pairNone
			}
		case aConst != bConst:
			// One side pins the dimension to a constant plane: the pair
			// overlaps only on that plane, so no uniform distance exists.
			which := 0
			if bConst {
				which = 1
			}
			report(dim, which, "mixes a loop subscript with a constant; dependence distance is not uniform")
			unknown = true
		default:
			av, acoeff, ac, _ := ir.AsScaledVarPlusConst(as)
			bv, bcoeff, bc, _ := ir.AsScaledVarPlusConst(bs)
			if av != bv {
				// Different index spaces (A(I,J) vs A(J,I)): overlap is
				// possible but not at a constant distance.
				report(dim, 0, fmt.Sprintf("indexed by %s in one reference and %s in another", av, bv))
				unknown = true
				continue
			}
			if acoeff != bcoeff {
				// coeff*V on one side and coeff'*V on the other overlap at
				// distances that depend on V itself, not a constant.
				report(dim, 0, fmt.Sprintf("indexed by %d*%s in one reference and %d*%s in another", acoeff, av, bcoeff, bv))
				unknown = true
				continue
			}
			li := n.LoopIndex(av)
			num := ac - bc
			if num%acoeff != 0 {
				// coeff*V+c1 = coeff*V'+c2 has no integer solution: the
				// references live on disjoint residues (the parity argument
				// that makes interp's eight stores independent).
				return nil, nil, pairNone
			}
			d := num / acoeff
			if set[li] && dist[li] != d {
				// Two dimensions constrain the same loop inconsistently:
				// no common element exists.
				return nil, nil, pairNone
			}
			dist[li], set[li] = d, true
		}
	}
	if unknown {
		return nil, nil, pairUnknown
	}
	return dist, set, pairConst
}

// realizable prunes distances the iteration space cannot produce: a
// step-s loop separates iterations only by multiples of s, and a loop
// with constant bounds only by at most its span.
func realizable(n *ir.Nest, dist []int) bool {
	for li, d := range dist {
		if d == 0 {
			continue
		}
		l := n.Loops[li]
		if l.Step > 1 && d%l.Step != 0 {
			return false
		}
		if lo, hi, ok := constBounds(l); ok {
			span := hi - lo
			if d > span || d < -span {
				return false
			}
		}
	}
	return true
}

func constBounds(l ir.Loop) (lo, hi int, ok bool) {
	if len(l.Lo.Exprs) != 1 || len(l.Hi.Exprs) != 1 || !isConst(l.Lo.Exprs[0]) || !isConst(l.Hi.Exprs[0]) {
		return 0, 0, false
	}
	return l.Lo.Exprs[0].Const, l.Hi.Exprs[0].Const, true
}

// orient builds the dependence from raw distance dist (b's iteration
// minus a's), flipping it so the source executes first.
func orient(a, b ir.Ref, si, ri int, dist []int) Dependence {
	switch lexSign(dist) {
	case 1:
		// a executes first.
		return Dependence{Kind: kindOf(a.Store, b.Store), Array: a.Array, Src: si, Dst: ri, Dist: dist}
	case -1:
		neg := make([]int, len(dist))
		for i, v := range dist {
			neg[i] = -v
		}
		return Dependence{Kind: kindOf(b.Store, a.Store), Array: a.Array, Src: ri, Dst: si, Dist: neg}
	default:
		// Same iteration: program order decides (si precedes ri).
		return Dependence{Kind: kindOf(a.Store, b.Store), Array: a.Array, Src: si, Dst: ri, Dist: dist}
	}
}

// lexSign returns the sign of the lexicographically first nonzero
// component, or 0 for the zero vector.
func lexSign(d []int) int {
	for _, v := range d {
		if v > 0 {
			return 1
		}
		if v < 0 {
			return -1
		}
	}
	return 0
}

// PermutedSign returns the lexicographic sign of the dependence's
// distance under a loop permutation perm (perm[newPos] = oldPos) — the
// quantity interchange legality rests on.
func (d Dependence) PermutedSign(perm []int) int {
	for _, old := range perm {
		if d.Dist[old] > 0 {
			return 1
		}
		if d.Dist[old] < 0 {
			return -1
		}
	}
	return 0
}

// IssueStrings renders Issues deterministically for display.
func (t *Table) IssueStrings() []string {
	out := make([]string, len(t.Issues))
	for i, is := range t.Issues {
		out[i] = is.String()
	}
	sort.Strings(out)
	return out
}

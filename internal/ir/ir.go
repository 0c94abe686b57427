// Package ir provides a small loop-nest intermediate representation for
// perfectly nested stencil loops with affine array subscripts — the
// program form the paper's compiler transformations operate on.
//
// A Nest is a list of loops (outermost first) and a body of array
// references executed once per innermost iteration, in program order.
// Bounds are max/min lists of affine expressions in the enclosing loop
// variables, which is exactly the bound form strip-mining introduces
// (J = JJ .. min(JJ+TJ-1, N-1)).
//
// The package also derives the inputs the selection algorithms need from
// the code itself: the stencil reach per dimension and the array-tile
// depth (Analyze), mirroring how a compiler instantiates the paper's cost
// model "directly from the loop nest" (Section 2.3).
package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Expr is an affine expression: Const + sum(Coeff[v] * v) over loop
// variables v.
type Expr struct {
	Const int
	Coeff map[string]int
}

// Con returns a constant expression.
func Con(c int) Expr { return Expr{Const: c} }

// Var returns the expression v + c.
func Var(v string, c int) Expr {
	return Expr{Const: c, Coeff: map[string]int{v: 1}}
}

// Plus returns e shifted by a constant.
func (e Expr) Plus(c int) Expr {
	out := e.clone()
	out.Const += c
	return out
}

func (e Expr) clone() Expr {
	m := make(map[string]int, len(e.Coeff))
	for k, v := range e.Coeff {
		m[k] = v
	}
	return Expr{Const: e.Const, Coeff: m}
}

// Eval evaluates the expression under the variable assignment env.
func (e Expr) Eval(env map[string]int) int {
	v := e.Const
	for name, c := range e.Coeff {
		v += c * env[name]
	}
	return v
}

// String renders the expression, variables in sorted order.
func (e Expr) String() string {
	var names []string
	for n, c := range e.Coeff {
		if c != 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		c := e.Coeff[n]
		switch {
		case c == 1 && i == 0:
			b.WriteString(n)
		case c == 1:
			b.WriteString("+" + n)
		case c == -1:
			b.WriteString("-" + n)
		case c > 0 && i > 0:
			fmt.Fprintf(&b, "+%d*%s", c, n)
		default:
			fmt.Fprintf(&b, "%d*%s", c, n)
		}
	}
	if e.Const != 0 || b.Len() == 0 {
		if e.Const >= 0 && b.Len() > 0 {
			fmt.Fprintf(&b, "+%d", e.Const)
		} else {
			fmt.Fprintf(&b, "%d", e.Const)
		}
	}
	return b.String()
}

// Bound is the max (for lower bounds) or min (for upper bounds) of a set
// of affine expressions.
type Bound struct {
	Exprs []Expr
}

// BoundOf wraps expressions into a bound.
func BoundOf(es ...Expr) Bound { return Bound{Exprs: es} }

// EvalMax evaluates the bound as a lower bound (maximum of the exprs).
func (b Bound) EvalMax(env map[string]int) int {
	v := b.Exprs[0].Eval(env)
	for _, e := range b.Exprs[1:] {
		if x := e.Eval(env); x > v {
			v = x
		}
	}
	return v
}

// EvalMin evaluates the bound as an upper bound (minimum of the exprs).
func (b Bound) EvalMin(env map[string]int) int {
	v := b.Exprs[0].Eval(env)
	for _, e := range b.Exprs[1:] {
		if x := e.Eval(env); x < v {
			v = x
		}
	}
	return v
}

// Loop is one loop level: for Name := max(Lo); Name <= min(Hi); Name += Step.
type Loop struct {
	Name   string
	Lo, Hi Bound
	Step   int
	// Align, when non-nil, starts the loop at the least value v >= max(Lo)
	// with v = Align (mod Step): the per-row colour parity of a red-black
	// sweep, I = 2 + mod(K+J+1, 2) in the Fortran. Only trace nests set
	// it; the dependence analysis, interpreter and code generator read
	// loops without it.
	Align *Expr
}

// SimpleLoop builds a loop with constant bounds and unit step.
func SimpleLoop(name string, lo, hi int) Loop {
	return Loop{Name: name, Lo: BoundOf(Con(lo)), Hi: BoundOf(Con(hi)), Step: 1}
}

// Pos is an optional source position (1-based line and column) carried
// from the surface language; the zero value means "unknown" and is what
// programmatic builders produce.
type Pos struct {
	Line, Col int
}

// IsValid reports whether the position was set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// String renders "line:col", or "?" for the zero position.
func (p Pos) String() string {
	if !p.IsValid() {
		return "?"
	}
	return fmt.Sprintf("%d:%d", p.Line, p.Col)
}

// Ref is one array reference: Array[Subs[0], Subs[1], ...] in column-major
// subscript order (fastest dimension first).
type Ref struct {
	Array string
	Store bool
	Subs  []Expr
	// Pos is where the reference appeared in the source program, when it
	// was parsed rather than built; diagnostics use it.
	Pos Pos
}

// Load builds a read reference.
func Load(array string, subs ...Expr) Ref { return Ref{Array: array, Subs: subs} }

// StoreRef builds a write reference.
func StoreRef(array string, subs ...Expr) Ref {
	return Ref{Array: array, Store: true, Subs: subs}
}

// Nest is a perfect loop nest with a straight-line body of references
// and, optionally, compute semantics (see compute.go) from which the
// body is derived.
type Nest struct {
	Loops []Loop
	Body  []Ref
	// Compute, when non-nil, gives the assignment each iteration
	// performs; Body is then DeriveBody(*Compute).
	Compute *Assign
}

// Clone deep-copies the nest so transformations can work destructively.
func (n *Nest) Clone() *Nest {
	c := &Nest{
		Loops: make([]Loop, len(n.Loops)),
		Body:  make([]Ref, len(n.Body)),
	}
	for i, l := range n.Loops {
		nl := Loop{Name: l.Name, Step: l.Step}
		for _, e := range l.Lo.Exprs {
			nl.Lo.Exprs = append(nl.Lo.Exprs, e.clone())
		}
		for _, e := range l.Hi.Exprs {
			nl.Hi.Exprs = append(nl.Hi.Exprs, e.clone())
		}
		if l.Align != nil {
			a := l.Align.clone()
			nl.Align = &a
		}
		c.Loops[i] = nl
	}
	for i, r := range n.Body {
		c.Body[i] = cloneRef(r)
	}
	if n.Compute != nil {
		a := Assign{LHS: cloneRef(n.Compute.LHS)}
		for _, t := range n.Compute.Terms {
			nt := Term{Coeff: t.Coeff, Neg: t.Neg}
			for _, r := range t.Refs {
				nt.Refs = append(nt.Refs, cloneRef(r))
			}
			a.Terms = append(a.Terms, nt)
		}
		c.Compute = &a
	}
	return c
}

func cloneRef(r Ref) Ref {
	nr := Ref{Array: r.Array, Store: r.Store, Pos: r.Pos}
	for _, s := range r.Subs {
		nr.Subs = append(nr.Subs, s.clone())
	}
	return nr
}

// RenameVar renames a loop variable throughout the nest: the loop header
// plus every bound expression and subscript. It returns an error if the
// new name is already a loop.
func (n *Nest) RenameVar(old, new string) error {
	if n.LoopIndex(new) >= 0 {
		return fmt.Errorf("ir: loop %q already exists", new)
	}
	idx := n.LoopIndex(old)
	if idx < 0 {
		return fmt.Errorf("ir: no loop %q", old)
	}
	n.Loops[idx].Name = new
	renameInExpr := func(e *Expr) {
		if c, ok := e.Coeff[old]; ok {
			delete(e.Coeff, old)
			if c != 0 {
				if e.Coeff == nil {
					e.Coeff = map[string]int{}
				}
				e.Coeff[new] = c
			}
		}
	}
	for li := range n.Loops {
		for ei := range n.Loops[li].Lo.Exprs {
			renameInExpr(&n.Loops[li].Lo.Exprs[ei])
		}
		for ei := range n.Loops[li].Hi.Exprs {
			renameInExpr(&n.Loops[li].Hi.Exprs[ei])
		}
		if n.Loops[li].Align != nil {
			renameInExpr(n.Loops[li].Align)
		}
	}
	for ri := range n.Body {
		for si := range n.Body[ri].Subs {
			renameInExpr(&n.Body[ri].Subs[si])
		}
	}
	if n.Compute != nil {
		for si := range n.Compute.LHS.Subs {
			renameInExpr(&n.Compute.LHS.Subs[si])
		}
		for ti := range n.Compute.Terms {
			for ri := range n.Compute.Terms[ti].Refs {
				for si := range n.Compute.Terms[ti].Refs[ri].Subs {
					renameInExpr(&n.Compute.Terms[ti].Refs[ri].Subs[si])
				}
			}
		}
	}
	return nil
}

// LoopIndex returns the position of the named loop, or -1.
func (n *Nest) LoopIndex(name string) int {
	for i, l := range n.Loops {
		if l.Name == name {
			return i
		}
	}
	return -1
}

// String renders the nest as pseudo-Fortran for debugging and docs.
func (n *Nest) String() string {
	var b strings.Builder
	for d, l := range n.Loops {
		indent := strings.Repeat("  ", d)
		lo := make([]string, len(l.Lo.Exprs))
		for i, e := range l.Lo.Exprs {
			lo[i] = e.String()
		}
		hi := make([]string, len(l.Hi.Exprs))
		for i, e := range l.Hi.Exprs {
			hi[i] = e.String()
		}
		loS, hiS := strings.Join(lo, ","), strings.Join(hi, ",")
		if len(lo) > 1 {
			loS = "max(" + loS + ")"
		}
		if len(hi) > 1 {
			hiS = "min(" + hiS + ")"
		}
		fmt.Fprintf(&b, "%sdo %s = %s, %s", indent, l.Name, loS, hiS)
		if l.Step != 1 {
			fmt.Fprintf(&b, ", %d", l.Step)
		}
		if l.Align != nil {
			fmt.Fprintf(&b, "  ! aligned to %s", l.Align)
		}
		b.WriteString("\n")
	}
	indent := strings.Repeat("  ", len(n.Loops))
	for _, r := range n.Body {
		subs := make([]string, len(r.Subs))
		for i, s := range r.Subs {
			subs[i] = s.String()
		}
		op := "load "
		if r.Store {
			op = "store"
		}
		fmt.Fprintf(&b, "%s%s %s(%s)\n", indent, op, r.Array, strings.Join(subs, ","))
	}
	return b.String()
}

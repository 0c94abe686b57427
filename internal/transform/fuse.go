package transform

import (
	"fmt"

	"tiling3d/internal/cache"
	"tiling3d/internal/deps"
	"tiling3d/internal/grid"
	"tiling3d/internal/ir"
	"tiling3d/internal/trace"
)

// Loop fusion with retiming: the paper's "realistic stencil code"
// (Figure 5, middle) has two nests inside the time-step loop — compute
// then copy-back — and its fused red-black (Figure 12) interleaves two
// color passes shifted by one plane. FuseShifted implements the general
// transformation: execute, per iteration v of the shared outer loop, the
// first nest's plane v and then the second nest's plane v-shift. The
// shift must cover every cross-nest dependence distance or fusion would
// read overwritten data; MinLegalShift computes the smallest legal value
// and FuseShifted refuses anything smaller.

// Fused is a fusion of two nests over their common outer loop.
type Fused struct {
	First, Second *ir.Nest
	Shift         int
}

// MinLegalShift returns the smallest shift that preserves the sequential
// semantics (first nest entirely before second): the maximum cross-nest
// outer-loop dependence distance, from the shared dependence analyzer.
// Both nests must have the same outer loop variable with constant bounds
// and loopVar+const subscripts in the outer dimension.
func MinLegalShift(n1, n2 *ir.Nest) (int, error) {
	shift, _, err := deps.MinFusionShift(n1, n2)
	return shift, err
}

// FuseShifted fuses the nests with the given shift, refusing shifts
// smaller than MinLegalShift and naming the binding dependence.
func FuseShifted(n1, n2 *ir.Nest, shift int) (*Fused, error) {
	min, binding, err := deps.MinFusionShift(n1, n2)
	if err != nil {
		return nil, err
	}
	if shift < min {
		return nil, fmt.Errorf("transform: shift %d below minimum legal shift %d required by %s", shift, min, binding)
	}
	return &Fused{First: n1.Clone(), Second: n2.Clone(), Shift: shift}, nil
}

type outerLoop struct {
	name   string
	lo, hi int
}

func outerInfo(n *ir.Nest) (outerLoop, error) {
	if len(n.Loops) == 0 {
		return outerLoop{}, fmt.Errorf("transform: empty nest")
	}
	l := n.Loops[0]
	if l.Step != 1 {
		return outerLoop{}, fmt.Errorf("transform: fusion requires unit-step outer loop")
	}
	if len(l.Lo.Exprs) != 1 || len(l.Hi.Exprs) != 1 ||
		len(l.Lo.Exprs[0].Coeff) != 0 || len(l.Hi.Exprs[0].Coeff) != 0 {
		return outerLoop{}, fmt.Errorf("transform: fusion requires constant outer bounds")
	}
	return outerLoop{name: l.Name, lo: l.Lo.Exprs[0].Const, hi: l.Hi.Exprs[0].Const}, nil
}

// OuterRange returns the fused outer iteration range: the union of the
// first nest's range and the second's shifted range.
func (f *Fused) OuterRange() (lo, hi int, err error) {
	o1, err := outerInfo(f.First)
	if err != nil {
		return 0, 0, err
	}
	o2, err := outerInfo(f.Second)
	if err != nil {
		return 0, 0, err
	}
	lo, hi = o1.lo, o1.hi
	if v := o2.lo + f.Shift; v < lo {
		lo = v
	}
	if v := o2.hi + f.Shift; v > hi {
		hi = v
	}
	return lo, hi, nil
}

// restrictOuter clones the nest with the outer loop pinned to value v.
func restrictOuter(n *ir.Nest, v int) *ir.Nest {
	c := n.Clone()
	c.Loops[0].Lo = ir.BoundOf(ir.Con(v))
	c.Loops[0].Hi = ir.BoundOf(ir.Con(v))
	return c
}

// forEachOuter drives the fused schedule: per outer value, the first
// nest's plane, then the second's shifted plane, each clamped to its own
// range.
func (f *Fused) forEachOuter(fn func(n *ir.Nest, v int) error) error {
	o1, err := outerInfo(f.First)
	if err != nil {
		return err
	}
	o2, err := outerInfo(f.Second)
	if err != nil {
		return err
	}
	lo, hi, err := f.OuterRange()
	if err != nil {
		return err
	}
	for v := lo; v <= hi; v++ {
		if v >= o1.lo && v <= o1.hi {
			if err := fn(f.First, v); err != nil {
				return err
			}
		}
		if w := v - f.Shift; w >= o2.lo && w <= o2.hi {
			if err := fn(f.Second, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// interpret executes the fused schedule's computation over real grids:
// the reference the tests hold the generated code to. Both nests must
// carry compute semantics.
func (f *Fused) interpret(env map[string]*grid.Grid3D, consts map[string]float64) error {
	return f.forEachOuter(func(n *ir.Nest, v int) error {
		return ir.Interpret(restrictOuter(n, v), env, consts)
	})
}

// replay issues the fused schedule's address stream per access.
func (f *Fused) replay(env map[string]trace.Binding, mem cache.Memory) error {
	return f.forEachOuter(func(n *ir.Nest, v int) error {
		return trace.Run(restrictOuter(n, v), env, mem)
	})
}

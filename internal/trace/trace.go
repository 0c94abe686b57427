// Package trace executes a loop nest from internal/ir as a load/store
// address stream — the single source of every simulated stream in the
// repository. The kernels (internal/stencil), the multigrid operators
// (internal/mg) and the user-defined stencils describe each variant as an
// ir nest, usually the output of internal/transform, and Compile lowers it
// against the arrays' layouts into a Program. RunBatched emits the
// program as lockstep cache.Run groups with cache.PlaneMark phase markers
// derived from the nest; Run emits the same stream one access at a time
// and is the reference the batched emitter is tested against.
package trace

import (
	"fmt"
	"slices"

	"tiling3d/internal/cache"
	"tiling3d/internal/grid"
	"tiling3d/internal/ir"
)

// Binding maps an array name to its storage layout: the base element
// address and the element stride of each array dimension.
type Binding struct {
	Base    int64
	Strides []int64
}

// Bind3D derives a binding from a grid's layout.
func Bind3D(g *grid.Grid3D) Binding {
	return Binding{
		Base:    g.Base(),
		Strides: []int64{1, int64(g.DI), int64(g.DI) * int64(g.DJ)},
	}
}

// Bind2D derives a binding from a 2D grid's layout.
func Bind2D(g *grid.Grid2D) Binding {
	return Binding{Base: g.Base(), Strides: []int64{1, int64(g.DI)}}
}

// compiledExpr is an affine expression lowered onto loop slots.
type compiledExpr struct {
	con    int64
	coeff  []int64 // per loop slot
	sparse []int   // slots with nonzero coefficients
}

func compileExpr(e ir.Expr, slot map[string]int) (compiledExpr, error) {
	c := compiledExpr{coeff: make([]int64, len(slot))}
	if err := c.add(e, slot, 1); err != nil {
		return compiledExpr{}, err
	}
	c.index()
	return c, nil
}

// add accumulates scale * e into c.
func (c *compiledExpr) add(e ir.Expr, slot map[string]int, scale int64) error {
	c.con += int64(e.Const) * scale
	for name, k := range e.Coeff {
		if k == 0 {
			continue
		}
		s, ok := slot[name]
		if !ok {
			return fmt.Errorf("trace: expression uses unknown variable %q", name)
		}
		c.coeff[s] += int64(k) * scale
	}
	return nil
}

// index lists the slots with nonzero coefficients.
func (c *compiledExpr) index() {
	for s, k := range c.coeff {
		if k != 0 {
			c.sparse = append(c.sparse, s)
		}
	}
}

func (c compiledExpr) eval(vars []int64) int64 {
	v := c.con
	for _, s := range c.sparse {
		v += c.coeff[s] * vars[s]
	}
	return v
}

type compiledRef struct {
	store bool
	addr  compiledExpr // byte address as one affine expression
}

type compiledLoop struct {
	lo, hi []compiledExpr
	align  *compiledExpr
	step   int64
}

// bounds returns the loop's first value and its upper bound.
func (l *compiledLoop) bounds(vars []int64) (lo, hi int64) {
	lo, hi = boundsUnaligned(l, vars)
	if l.align != nil {
		lo = l.alignUp(lo, l.align.eval(vars))
	}
	return lo, hi
}

// alignUp returns the least v >= lo with v = a (mod step).
func (l *compiledLoop) alignUp(lo, a int64) int64 {
	d := (a - lo) % l.step
	if d < 0 {
		d += l.step
	}
	return lo + d
}

// trips returns the number of iterations from lo to hi.
func (l *compiledLoop) trips(lo, hi int64) int64 {
	if hi < lo {
		return 0
	}
	return (hi-lo)/l.step + 1
}

// Program is a nest lowered to flat affine address expressions, ready to
// run repeatedly (and concurrently: running never mutates it).
type Program struct {
	loops []compiledLoop
	refs  []compiledRef
	// delta is the Delta of the phase markers: the byte shift every
	// reference makes when the outermost loop steps once, 0 when the
	// references disagree.
	delta int64
	// groups holds one entry per distinct address coefficient vector;
	// group[r] and off[r] place reference r as its group's address plus
	// a constant.
	groups []compiledExpr
	group  []int
	off    []int64
	// rowInvariant reports that the innermost loop's bounds do not depend
	// on the loop around it (Align aside).
	rowInvariant bool
}

// Compile lowers the nest against the array bindings. Every subscript of
// every reference is folded with the array strides into a single affine
// byte-address expression per reference.
func Compile(n *ir.Nest, env map[string]Binding) (*Program, error) {
	slot := make(map[string]int, len(n.Loops))
	for i, l := range n.Loops {
		slot[l.Name] = i
	}
	p := &Program{}
	for _, l := range n.Loops {
		cl := compiledLoop{step: int64(l.Step)}
		if cl.step <= 0 {
			return nil, fmt.Errorf("trace: loop %q has non-positive step %d", l.Name, l.Step)
		}
		for _, e := range l.Lo.Exprs {
			ce, err := compileExpr(e, slot)
			if err != nil {
				return nil, err
			}
			cl.lo = append(cl.lo, ce)
		}
		for _, e := range l.Hi.Exprs {
			ce, err := compileExpr(e, slot)
			if err != nil {
				return nil, err
			}
			cl.hi = append(cl.hi, ce)
		}
		if len(cl.lo) == 0 || len(cl.hi) == 0 {
			return nil, fmt.Errorf("trace: loop %q missing bounds", l.Name)
		}
		if l.Align != nil {
			ce, err := compileExpr(*l.Align, slot)
			if err != nil {
				return nil, err
			}
			cl.align = &ce
		}
		p.loops = append(p.loops, cl)
	}
	for _, r := range n.Body {
		b, ok := env[r.Array]
		if !ok {
			return nil, fmt.Errorf("trace: no binding for array %q", r.Array)
		}
		if len(b.Strides) != len(r.Subs) {
			return nil, fmt.Errorf("trace: array %q bound with %d dims, referenced with %d",
				r.Array, len(b.Strides), len(r.Subs))
		}
		// addr = (base + sum(stride_d * sub_d)) * ElemSize
		acc := compiledExpr{con: b.Base * grid.ElemSize, coeff: make([]int64, len(slot))}
		for d, sub := range r.Subs {
			if err := acc.add(sub, slot, b.Strides[d]*grid.ElemSize); err != nil {
				return nil, err
			}
		}
		acc.index()
		p.refs = append(p.refs, compiledRef{store: r.Store, addr: acc})
	}
	p.delta = p.planeDelta()
	p.groupRefs()
	p.rowInvariant = true
	if d := len(p.loops) - 2; d >= 0 {
		in := &p.loops[d+1]
		for _, x := range append(append([]compiledExpr{}, in.lo...), in.hi...) {
			p.rowInvariant = p.rowInvariant && x.coeff[d] == 0
		}
	}
	return p, nil
}

// planeDelta follows one step of the outermost loop through each inner
// loop's first lower bound (the tile variable, where strip-mining puts
// it) and returns the resulting byte shift of the references, or 0 when
// they do not all shift alike.
func (p *Program) planeDelta() int64 {
	if len(p.loops) == 0 || len(p.refs) == 0 {
		return 0
	}
	shift := make([]int64, len(p.loops))
	shift[0] = p.loops[0].step
	for d := 1; d < len(p.loops); d++ {
		e := p.loops[d].lo[0]
		for _, s := range e.sparse {
			shift[d] += e.coeff[s] * shift[s]
		}
	}
	var delta int64
	for i, r := range p.refs {
		var v int64
		for _, s := range r.addr.sparse {
			v += r.addr.coeff[s] * shift[s]
		}
		if i > 0 && v != delta {
			return 0
		}
		delta = v
	}
	return delta
}

// groupRefs partitions the references by address coefficient vector, so
// the emitter advances one base per group instead of re-evaluating every
// reference.
func (p *Program) groupRefs() {
	p.group = make([]int, len(p.refs))
	p.off = make([]int64, len(p.refs))
	for r, ref := range p.refs {
		g := 0
		for g < len(p.groups) && !slices.Equal(p.groups[g].coeff, ref.addr.coeff) {
			g++
		}
		if g == len(p.groups) {
			p.groups = append(p.groups, ref.addr)
		}
		p.group[r] = g
		p.off[r] = ref.addr.con - p.groups[g].con
	}
}

// Run executes the program once, emitting every reference to mem.
func (p *Program) Run(mem cache.Memory) {
	vars := make([]int64, len(p.loops))
	p.run(0, vars, mem)
}

func (p *Program) run(depth int, vars []int64, mem cache.Memory) {
	if depth == len(p.loops) {
		for i := range p.refs {
			r := &p.refs[i]
			a := r.addr.eval(vars)
			if r.store {
				mem.Store(a)
			} else {
				mem.Load(a)
			}
		}
		return
	}
	l := &p.loops[depth]
	lo, hi := l.bounds(vars)
	for v := lo; v <= hi; v += l.step {
		vars[depth] = v
		p.run(depth+1, vars, mem)
	}
}

// RunBatched executes the program once, emitting the address stream in
// batched form: every execution of the innermost loop becomes one
// lockstep group with a strided Run per reference, so expanding the
// emitted stream reproduces Run's per-access order exactly. After each
// iteration of the outermost loop of a nest at least two loops deep it
// emits a cache.PlaneMark naming the iteration (Index), the loop's trip
// count (Planes) and the program's byte shift per iteration (Delta) to
// sinks that understand markers; a sink that declines the rest of the
// phase (cache.PhaseSkipper) next receives only the closing marker. A
// whole execution allocates O(refs).
func (p *Program) RunBatched(sink cache.RunSink) {
	if len(p.refs) == 0 {
		return
	}
	buf := make([]cache.Run, len(p.refs))
	if len(p.loops) == 0 {
		for r := range p.refs {
			buf[r] = cache.Run{Base: p.refs[r].addr.con, Count: 1, Store: p.refs[r].store, Cont: r > 0}
		}
		sink.ReplayRuns(buf)
		return
	}
	in := len(p.loops) - 1
	for r := range p.refs {
		buf[r] = cache.Run{Stride: p.refs[r].addr.coeff[in] * p.loops[in].step, Store: p.refs[r].store, Cont: r > 0}
	}
	ng := len(p.groups)
	e := &emitter{p: p, sink: sink, vars: make([]int64, len(p.loops)), buf: buf, off: p.off}
	e.marks, _ = sink.(cache.PlaneSink)
	e.skip, _ = sink.(cache.PhaseSkipper)
	flat := make([]int64, 3*ng)
	e.row, e.rowStride, e.inner = flat[:ng], flat[ng:2*ng], flat[2*ng:]
	for g := range p.groups {
		e.inner[g] = p.groups[g].coeff[in]
		if in > 0 {
			e.rowStride[g] = p.groups[g].coeff[in-1] * p.loops[in-1].step
		}
	}
	if in == 0 {
		for g := range p.groups {
			e.row[g] = p.groups[g].con
		}
		lo, hi := p.loops[0].bounds(e.vars)
		e.emitRow(p.loops[0].trips(lo, hi), lo)
		return
	}
	e.loop(0)
}

// emitter holds one RunBatched execution's state.
type emitter struct {
	p     *Program
	sink  cache.RunSink
	marks cache.PlaneSink
	skip  cache.PhaseSkipper
	vars  []int64
	buf   []cache.Run
	off   []int64
	// row holds each group's address at the current row with the
	// innermost variable at zero; rowStride is what one step of the row
	// loop adds to it, inner each group's innermost coefficient.
	row, rowStride, inner []int64
	// count is the Count every run in buf carries.
	count int32
}

// loop runs the loop at depth d, above the row loop.
func (e *emitter) loop(d int) {
	l := &e.p.loops[d]
	lo, hi := l.bounds(e.vars)
	if d == len(e.p.loops)-2 {
		e.rows(lo, hi)
		return
	}
	for v, i := lo, 0; v <= hi; v, i = v+l.step, i+1 {
		e.vars[d] = v
		e.loop(d + 1)
		if d == 0 && e.mark(i, l.trips(lo, hi)) {
			return
		}
	}
}

// mark emits the phase marker closing outermost iteration i of n. When
// the sink then declines the rest of the phase, it emits the closing
// marker too and reports true.
func (e *emitter) mark(i int, n int64) bool {
	if e.marks == nil {
		return false
	}
	e.marks.PlaneMark(cache.PlaneMark{Delta: e.p.delta, Index: i, Planes: int(n)})
	if e.skip == nil || int64(i) >= n-1 || !e.skip.SkipRest() {
		return false
	}
	e.marks.PlaneMark(cache.PlaneMark{Delta: e.p.delta, Index: int(n) - 1, Planes: int(n)})
	return true
}

// rows runs the row loop (the loop around the innermost) at depth d,
// emitting one lockstep group per row. Group bases and the innermost
// alignment advance by their row coefficients instead of being
// re-evaluated, and innermost bounds that do not depend on the row
// variable are evaluated once per row loop.
func (e *emitter) rows(lo, hi int64) {
	p := e.p
	d := len(p.loops) - 2
	l, in := &p.loops[d], &p.loops[d+1]
	e.vars[d] = lo
	for g := range e.row {
		e.row[g] = p.groups[g].eval(e.vars)
	}
	var first, last, align int64
	if p.rowInvariant {
		first, last = boundsUnaligned(in, e.vars)
		if d > 0 && in.trips(first, last) == 0 {
			return
		}
	}
	if in.align != nil {
		align = in.align.eval(e.vars)
	}
	trips := l.trips(lo, hi)
	for v, i := lo, 0; v <= hi; v, i = v+l.step, i+1 {
		if !p.rowInvariant {
			e.vars[d] = v
			first, last = boundsUnaligned(in, e.vars)
		}
		start := first
		if in.align != nil {
			start = in.alignUp(first, align)
			align += in.align.coeff[d] * l.step
		}
		e.emitRow(in.trips(start, last), start)
		for g := range e.row {
			e.row[g] += e.rowStride[g]
		}
		if d == 0 && e.mark(i, trips) {
			return
		}
	}
}

// boundsUnaligned returns the loop's bounds ignoring Align.
func boundsUnaligned(l *compiledLoop, vars []int64) (lo, hi int64) {
	lo = l.lo[0].eval(vars)
	for _, x := range l.lo[1:] {
		lo = max(lo, x.eval(vars))
	}
	hi = l.hi[0].eval(vars)
	for _, x := range l.hi[1:] {
		hi = min(hi, x.eval(vars))
	}
	return lo, hi
}

// emitRow emits the lockstep group of one row: count accesses per
// reference with the innermost variable starting at first. Only the
// bases change from row to row (and the count where the bounds do).
func (e *emitter) emitRow(count, first int64) {
	const maxChunk = 1<<31 - 1
	if count <= 0 {
		return
	}
	if count > maxChunk {
		e.emitRow(maxChunk, first)
		e.emitRow(count-maxChunk, first+maxChunk*e.p.loops[len(e.p.loops)-1].step)
		return
	}
	buf, off := e.buf, e.off[:len(e.buf)]
	if c := int32(count); c != e.count {
		for r := range buf {
			buf[r].Count = c
		}
		e.count = c
	}
	if len(e.row) == 1 {
		b := e.row[0] + e.inner[0]*first
		for r := range buf {
			buf[r].Base = b + off[r]
		}
	} else {
		grp := e.p.group[:len(buf)]
		for r := range buf {
			g := grp[r]
			buf[r].Base = e.row[g] + e.inner[g]*first + off[r]
		}
	}
	e.sink.ReplayRuns(buf)
}

// Run compiles and executes a nest in one step.
func Run(n *ir.Nest, env map[string]Binding, mem cache.Memory) error {
	p, err := Compile(n, env)
	if err != nil {
		return err
	}
	p.Run(mem)
	return nil
}

// RunBatchedNest compiles and executes a nest in one step, emitting the
// batched stream.
func RunBatchedNest(n *ir.Nest, env map[string]Binding, sink cache.RunSink) error {
	p, err := Compile(n, env)
	if err != nil {
		return err
	}
	p.RunBatched(sink)
	return nil
}

package trace_test

// Randomized cross-validation of the compiled walker: generate random
// affine nests (random depths, bounds, strip-mine-like min/max bounds,
// steps, alignments and subscripts), run them through trace.Compile/Run,
// and compare against a naive direct evaluator of the same nest.

import (
	"math/rand"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/ir"
	"tiling3d/internal/trace"
)

// naiveRun evaluates the nest directly from the IR definition.
func naiveRun(n *ir.Nest, env map[string]trace.Binding, mem cache.Memory) {
	vars := map[string]int{}
	var walk func(d int)
	walk = func(d int) {
		if d == len(n.Loops) {
			for _, r := range n.Body {
				b := env[r.Array]
				addr := b.Base
				for dim, sub := range r.Subs {
					addr += int64(sub.Eval(vars)) * b.Strides[dim]
				}
				addr *= 8
				if r.Store {
					mem.Store(addr)
				} else {
					mem.Load(addr)
				}
			}
			return
		}
		l := n.Loops[d]
		lo := l.Lo.EvalMax(vars)
		hi := l.Hi.EvalMin(vars)
		if l.Align != nil {
			for (lo-l.Align.Eval(vars))%l.Step != 0 {
				lo++
			}
		}
		for v := lo; v <= hi; v += l.Step {
			vars[l.Name] = v
			walk(d + 1)
		}
		delete(vars, l.Name)
	}
	walk(0)
}

func randomNest(rng *rand.Rand) (*ir.Nest, map[string]trace.Binding) {
	depth := 1 + rng.Intn(4)
	names := []string{"I", "J", "K", "L"}[:depth]
	n := &ir.Nest{}
	for d, name := range names {
		lo := rng.Intn(3)
		hi := lo + rng.Intn(7) - 1 // sometimes empty
		l := ir.Loop{
			Name: name,
			Lo:   ir.BoundOf(ir.Con(lo)),
			Hi:   ir.BoundOf(ir.Con(hi)),
			Step: 1 + rng.Intn(3),
		}
		// Sometimes add bound expressions referencing an outer loop, the
		// strip-mined and skewed forms, and sometimes align the start.
		if d > 0 && rng.Intn(2) == 0 {
			outer := names[rng.Intn(d)]
			l.Hi.Exprs = append(l.Hi.Exprs, ir.Var(outer, 1+rng.Intn(4)))
		}
		if d > 0 && rng.Intn(3) == 0 {
			outer := names[rng.Intn(d)]
			l.Lo.Exprs = append([]ir.Expr{ir.Var(outer, rng.Intn(3)-1)}, l.Lo.Exprs...)
		}
		if d > 0 && rng.Intn(3) == 0 {
			a := ir.Var(names[rng.Intn(d)], rng.Intn(3))
			l.Align = &a
		}
		n.Loops = append(n.Loops, l)
	}
	arrays := []string{"A", "B"}
	env := map[string]trace.Binding{}
	dims := 1 + rng.Intn(3)
	for ai, a := range arrays {
		strides := make([]int64, dims)
		s := int64(1)
		for d := 0; d < dims; d++ {
			strides[d] = s
			s *= int64(16 + rng.Intn(8))
		}
		env[a] = trace.Binding{Base: int64(ai) * 100000, Strides: strides}
	}
	nrefs := 1 + rng.Intn(5)
	for r := 0; r < nrefs; r++ {
		ref := ir.Ref{Array: arrays[rng.Intn(len(arrays))], Store: rng.Intn(4) == 0}
		for d := 0; d < dims; d++ {
			e := ir.Con(rng.Intn(4))
			if rng.Intn(3) > 0 {
				e = ir.Var(names[rng.Intn(depth)], rng.Intn(5)-2)
			}
			ref.Subs = append(ref.Subs, e)
		}
		n.Body = append(n.Body, ref)
	}
	return n, env
}

func TestCompiledWalkerMatchesNaiveOnRandomNests(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		nest, env := randomNest(rng)
		var want, got cache.Recorder
		naiveRun(nest, env, &want)
		if err := trace.Run(nest, env, &got); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		if len(want.Ops) != len(got.Ops) {
			t.Fatalf("trial %d: naive %d ops, compiled %d ops\n%s", trial, len(want.Ops), len(got.Ops), nest)
		}
		for i := range want.Ops {
			if want.Ops[i] != got.Ops[i] {
				t.Fatalf("trial %d op %d: naive %+v, compiled %+v\n%s", trial, i, want.Ops[i], got.Ops[i], nest)
			}
		}
	}
}

// TestBatchedWalkerMatchesPerAccessOnRandomNests proves RunBatched emits a
// stream whose expansion is exactly the per-access order, over the same
// random nest population. The recorders are reused across trials via Reset
// to exercise the allocation-free replay path.
func TestBatchedWalkerMatchesPerAccessOnRandomNests(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	var want, got cache.Recorder
	var rec cache.RunRecorder
	for trial := 0; trial < 200; trial++ {
		nest, env := randomNest(rng)
		want.Reset()
		got.Reset()
		rec.Reset()
		if err := trace.Run(nest, env, &want); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		if err := trace.RunBatchedNest(nest, env, &rec); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, nest)
		}
		cache.ExpandRuns(rec.Runs, &got)
		if len(want.Ops) != len(got.Ops) {
			t.Fatalf("trial %d: per-access %d ops, batched %d ops\n%s", trial, len(want.Ops), len(got.Ops), nest)
		}
		// One marker per outermost iteration, empty inner loops or not.
		outer := 0
		if len(nest.Loops) >= 2 {
			l := nest.Loops[0]
			for v := l.Lo.EvalMax(nil); v <= l.Hi.EvalMin(nil); v += l.Step {
				outer++
			}
		}
		if len(rec.Marks) != outer {
			t.Fatalf("trial %d: %d markers for %d outermost iterations\n%s", trial, len(rec.Marks), outer, nest)
		}
		for x, m := range rec.Marks {
			if m.Mark.Index != x || m.Mark.Planes != outer {
				t.Fatalf("trial %d: marker %d is %+v, want index %d of %d\n%s", trial, x, m.Mark, x, outer, nest)
			}
		}
		for i := range want.Ops {
			if want.Ops[i] != got.Ops[i] {
				t.Fatalf("trial %d op %d: per-access %+v, batched %+v\n%s", trial, i, want.Ops[i], got.Ops[i], nest)
			}
		}
	}
}

// TestPlaneMarksFromNest pins the phase markers the emitter derives from
// a nest: one per outermost iteration, numbered, with the trip count and
// the common byte shift of the references (0 when they disagree, none
// for a single loop).
func TestPlaneMarksFromNest(t *testing.T) {
	i, j, k := ir.Var("I", 0), ir.Var("J", 0), ir.Var("K", 0)
	nest := &ir.Nest{
		Loops: []ir.Loop{ir.SimpleLoop("K", 1, 4), ir.SimpleLoop("J", 1, 3), ir.SimpleLoop("I", 0, 5)},
		Body:  []ir.Ref{ir.Load("B", i, j.Plus(1), k), ir.StoreRef("A", i, j, k.Plus(-1))},
	}
	plane := func(di, dj int64) trace.Binding { return trace.Binding{Strides: []int64{1, di, di * dj}} }
	tiled := nest.Clone()
	tiled.Loops = []ir.Loop{
		{Name: "JJ", Lo: ir.BoundOf(ir.Con(1)), Hi: ir.BoundOf(ir.Con(7)), Step: 3},
		ir.SimpleLoop("K", 1, 4),
		{Name: "J", Lo: ir.BoundOf(ir.Var("JJ", 0)), Hi: ir.BoundOf(ir.Var("JJ", 2), ir.Con(7)), Step: 1},
		ir.SimpleLoop("I", 0, 5),
	}
	single := &ir.Nest{Loops: []ir.Loop{ir.SimpleLoop("I", 0, 5)}, Body: []ir.Ref{ir.Load("V", i)}}
	for _, c := range []struct {
		name  string
		nest  *ir.Nest
		env   map[string]trace.Binding
		marks []cache.PlaneMark
	}{
		{"planes", nest, map[string]trace.Binding{"A": plane(8, 6), "B": plane(8, 6)}, []cache.PlaneMark{
			{Delta: 384, Index: 0, Planes: 4}, {Delta: 384, Index: 1, Planes: 4},
			{Delta: 384, Index: 2, Planes: 4}, {Delta: 384, Index: 3, Planes: 4}}},
		{"mixed strides", nest, map[string]trace.Binding{"A": plane(8, 6), "B": plane(8, 7)}, []cache.PlaneMark{
			{Index: 0, Planes: 4}, {Index: 1, Planes: 4}, {Index: 2, Planes: 4}, {Index: 3, Planes: 4}}},
		{"tile rows", tiled, map[string]trace.Binding{"A": plane(8, 9), "B": plane(8, 9)}, []cache.PlaneMark{
			{Delta: 192, Index: 0, Planes: 3}, {Delta: 192, Index: 1, Planes: 3}, {Delta: 192, Index: 2, Planes: 3}}},
		{"single loop", single, map[string]trace.Binding{"V": {Strides: []int64{1}}}, nil},
	} {
		var rec cache.RunRecorder
		if err := trace.RunBatchedNest(c.nest, c.env, &rec); err != nil {
			t.Fatal(err)
		}
		var got []cache.PlaneMark
		for _, m := range rec.Marks {
			got = append(got, m.Mark)
		}
		if len(got) != len(c.marks) {
			t.Fatalf("%s: %d markers %+v, want %+v", c.name, len(got), got, c.marks)
		}
		for x := range got {
			if got[x] != c.marks[x] {
				t.Errorf("%s: marker %d = %+v, want %+v", c.name, x, got[x], c.marks[x])
			}
		}
	}
}

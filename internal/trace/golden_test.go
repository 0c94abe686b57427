package trace_test

// Golden streams: every simulated address stream the repository emits —
// each kernel variant, the 2-D Jacobi, the multigrid V-cycle, the
// three-loop and recursive ablations and the user-defined stencils — is
// hashed run by run and marker by marker and compared against
// testdata/streams.golden. A reordered reference, a shifted bound, a
// changed Level or a missing phase marker changes a line.
//
// Regenerate (only when a stream change is intended) with
//
//	go test ./internal/trace -run TestGoldenStreams -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"testing"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/grid"
	"tiling3d/internal/mg"
	"tiling3d/internal/stencil"
)

var update = flag.Bool("update", false, "rewrite testdata/streams.golden")

// streamHash is a plane-aware sink that hashes every run and marker in
// stream order.
type streamHash struct {
	h           hash.Hash
	runs, marks int
}

func newStreamHash() *streamHash { return &streamHash{h: sha256.New()} }

func (s *streamHash) put(tag byte, vs ...int64) {
	buf := make([]byte, 1+8*len(vs))
	buf[0] = tag
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[1+8*i:], uint64(v))
	}
	s.h.Write(buf)
}

func flag01(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (s *streamHash) ReplayRuns(runs []cache.Run) {
	for _, r := range runs {
		s.put('R', r.Base, r.Stride, int64(r.Count), flag01(r.Store), flag01(r.Cont))
	}
	s.runs += len(runs)
}

func (s *streamHash) PlaneMark(m cache.PlaneMark) {
	s.put('M', m.Delta, int64(m.Index), int64(m.Planes), int64(m.Level))
	s.marks++
}

func (s *streamHash) line(name string) string {
	return fmt.Sprintf("%s runs=%d marks=%d %x\n", name, s.runs, s.marks, s.h.Sum(nil))
}

// accessHash is a per-access memory that hashes every load and store.
type accessHash struct {
	h        hash.Hash
	accesses int
	buf      [9]byte
}

func (a *accessHash) op(tag byte, addr int64) {
	a.buf[0] = tag
	binary.LittleEndian.PutUint64(a.buf[1:], uint64(addr))
	a.h.Write(a.buf[:])
	a.accesses++
}

func (a *accessHash) Load(addr int64)  { a.op('L', addr) }
func (a *accessHash) Store(addr int64) { a.op('S', addr) }

func (a *accessHash) line(name string) string {
	return fmt.Sprintf("%s accesses=%d %x\n", name, a.accesses, a.h.Sum(nil))
}

// streamCase emits one stream: batched (runs and markers pinned) or
// per-access (accesses pinned).
type streamCase struct {
	name    string
	batched func(cache.RunSink)
	access  func(cache.Memory)
}

func tiledPlan(ti, tj, di, dj int) core.Plan {
	return core.Plan{Tile: core.Tile{TI: ti, TJ: tj}, DI: di, DJ: dj, Tiled: true}
}

func kernelCases() []streamCase {
	const depth = 8
	tiles := []core.Tile{{}, {TI: 1, TJ: 1}, {TI: 4, TJ: 5}, {TI: 5, TJ: 7}, {TI: 30, TJ: 3}}
	var cs []streamCase
	for _, k := range stencil.Kernels() {
		for _, n := range []int{5, 17} {
			for _, padded := range []bool{false, true} {
				di, dj := n, n
				if padded {
					di, dj = n+3, n+1
				}
				for _, t := range tiles {
					plan := core.Plan{DI: di, DJ: dj}
					variant := "orig"
					if t.Valid() {
						plan = tiledPlan(t.TI, t.TJ, di, dj)
						variant = fmt.Sprintf("tile%dx%d", t.TI, t.TJ)
					}
					w := stencil.NewTraceWorkload(k, n, depth, plan)
					cs = append(cs, streamCase{
						name:    fmt.Sprintf("%s/n%d/d%dx%d/%s", k, n, di, dj, variant),
						batched: w.ReplayTrace,
					})
				}
			}
		}
	}
	// JACOBI with A and B padded differently: no uniform translation
	// between phase units, so every marker carries Delta 0.
	for _, plan := range []core.Plan{{DI: 17, DJ: 17}, tiledPlan(4, 5, 17, 17)} {
		arena := grid.NewArena()
		a := arena.Place(grid.Must3DShape(17, 17, depth, 20, 18))
		b := arena.Place(grid.Must3DShape(17, 17, depth, 17, 17))
		w := &stencil.Workload{Kernel: stencil.Jacobi, N: 17, K: depth, Plan: plan, Grids: []*grid.Grid3D{a, b}}
		cs = append(cs, streamCase{
			name:    fmt.Sprintf("JACOBI/mixed-padding/tiled=%v", plan.Tiled),
			batched: w.ReplayTrace,
		})
	}
	return cs
}

func twoDCases() []streamCase {
	var cs []streamCase
	for _, n := range []int{5, 20} {
		for _, padA := range []int{0, 3} {
			for _, ti := range []int{0, 1, 4, 30} {
				arena := grid.NewArena()
				a, err := grid.New2DPadded(n, n, n+padA)
				if err != nil {
					panic(err)
				}
				arena.Place2D(a)
				b := arena.Place2D(grid.New2D(n, n))
				cs = append(cs, streamCase{
					name:    fmt.Sprintf("JACOBI2D/n%d/padA%d/ti%d", n, padA, ti),
					batched: func(sink cache.RunSink) { stencil.ReplayJacobi2D(a, b, ti, sink) },
				})
			}
		}
	}
	return cs
}

func multigridCases() []streamCase {
	var cs []streamCase
	for lm := 2; lm <= 4; lm++ {
		m := (1 << lm) + 2
		for _, p := range []mg.Params{
			{LM: lm},
			{LM: lm, Plan: tiledPlan(4, 3, m+3, m+1), TileSmoother: true},
		} {
			s := mg.New(p)
			cs = append(cs, streamCase{
				name: fmt.Sprintf("MG/lm%d/tiled=%v", lm, p.Plan.Tiled),
				batched: func(sink cache.RunSink) {
					s.TraceVCycleRuns(sink)
					s.TraceResidRuns(sink)
				},
			})
		}
	}
	return cs
}

func ablationCases() []streamCase {
	const n, depth = 17, 8
	arena := grid.NewArena()
	a := arena.Place(grid.Must3DShape(n, n, depth, n+3, n+1))
	b := arena.Place(grid.Must3DShape(n, n, depth, n+3, n+1))
	var cs []streamCase
	for _, t := range [][3]int{{4, 5, 3}, {1, 1, 1}, {30, 3, 4}} {
		cs = append(cs, streamCase{
			name:   fmt.Sprintf("JACOBI/3loop/%dx%dx%d", t[0], t[1], t[2]),
			access: func(mem cache.Memory) { stencil.JacobiTiled3LoopTrace(a, b, mem, t[0], t[1], t[2]) },
		})
	}
	for _, leaf := range []int{1, 3, 6} {
		cs = append(cs, streamCase{
			name:   fmt.Sprintf("JACOBI/recursive/leaf%d", leaf),
			access: func(mem cache.Memory) { stencil.JacobiRecursiveTrace(a, b, mem, leaf) },
		})
	}
	return cs
}

func userStencilCases() []streamCase {
	const n, depth = 12, 8
	arena := grid.NewArena()
	src := arena.Place(grid.Must3DShape(n, n, depth, n+2, n))
	dst := arena.Place(grid.Must3DShape(n, n, depth, n, n+1))
	skew, err := stencil.NewShape([]stencil.Tap{
		{DI: 0, DJ: 0, DK: 0, W: 1}, {DI: -2, DJ: 0, DK: 0, W: 1}, {DI: 1, DJ: 0, DK: 0, W: 1},
		{DI: 0, DJ: 2, DK: 0, W: 1}, {DI: 0, DJ: -1, DK: 0, W: 1}, {DI: 1, DJ: 0, DK: -1, W: 1},
	})
	if err != nil {
		panic(err)
	}
	var cs []streamCase
	for _, plan := range []core.Plan{{}, tiledPlan(3, 4, 0, 0), tiledPlan(30, 2, 0, 0)} {
		for i, shape := range []stencil.Shape{stencil.Box7(-6, 1), skew} {
			cs = append(cs, streamCase{
				name:   fmt.Sprintf("SHAPE/%d/tiled=%v/%dx%d", i, plan.Tiled, plan.Tile.TI, plan.Tile.TJ),
				access: func(mem cache.Memory) { shape.Trace(dst, src, mem, plan) },
			})
		}
	}
	return cs
}

// TestGoldenStreams pins every emitted stream against the golden file.
func TestGoldenStreams(t *testing.T) {
	var cases []streamCase
	cases = append(cases, kernelCases()...)
	cases = append(cases, twoDCases()...)
	cases = append(cases, multigridCases()...)
	cases = append(cases, ablationCases()...)
	cases = append(cases, userStencilCases()...)
	var got bytes.Buffer
	for _, c := range cases {
		if c.batched != nil {
			s := newStreamHash()
			c.batched(s)
			got.WriteString(s.line(c.name))
		} else {
			a := &accessHash{h: sha256.New()}
			c.access(a)
			got.WriteString(a.line(c.name))
		}
	}
	path := filepath.Join("testdata", "streams.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(gl) != len(wl) {
		t.Fatalf("%d stream lines, golden has %d", len(gl), len(wl))
	}
	for i := range gl {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("stream differs from golden:\n got  %s\n want %s", gl[i], wl[i])
		}
	}
}

// Package schedule derives, certifies and executes parallel tile
// schedules from the dependence tables of internal/deps — the parallel
// counterpart of the serial legality pipeline: just as every serial
// transformation is gated on the dependence table and re-proved by
// deps.Certify, every parallel schedule here is derived *from* a nest's
// distance vectors and then proved by an independent checker before a
// single goroutine runs.
//
// The derivation maps each element-space distance vector to an interval
// box of tile-space deltas (a distance d under tile size S separates
// tile coordinates by floor(d/S)..ceil(d/S)), drops the boxes that
// never leave a tile (intra-tile order is the nest's own serial order),
// and then picks the weakest legal schedule shape:
//
//   - no cross-tile edges → a Batch: every tile is one parallel step;
//   - edges in the non-negative cone → a Wavefront: steps are levels of
//     the hyperplane λ·coord with λ·δ ≥ 1 for every edge delta δ;
//   - edges with mixed-sign deltas (the time-skewed pipeline's storage
//     reuse) → a Diamond: the same hyperplane form with a λ that cuts
//     both directions.
//
// Certify is deliberately independent of the derivation: it enumerates
// every concrete tile delta each edge box admits and scans the whole
// tile grid proving step(T+δ) > step(T) — no dependence edge may
// connect two tiles on the same parallel step — refusing with the
// violating distance vector. Execute refuses to run anything Certify
// refuses.
package schedule

import (
	"fmt"
	"strings"

	"tiling3d/internal/deps"
)

// Kind is the shape of a schedule.
type Kind int

const (
	// Serial runs tiles one at a time in lexicographic order.
	Serial Kind = iota
	// Batch runs every tile as one parallel step (no cross-tile edges).
	Batch
	// Wavefront runs tiles by levels of a hyperplane λ·coord with
	// non-negative edge deltas.
	Wavefront
	// Diamond is a wavefront whose edges include negative components —
	// the time-skewed pipeline shape, where storage reuse points
	// backwards along the stage axis.
	Diamond
)

func (k Kind) String() string {
	switch k {
	case Serial:
		return "serial"
	case Batch:
		return "batch"
	case Wavefront:
		return "wavefront"
	case Diamond:
		return "diamond"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Dim is one scheduled tile dimension: Count tiles of Size iterations
// of the named nest loop. Tiles are addressed 0..Count-1; tile b covers
// loop values [origin + b*Size, origin + (b+1)*Size - 1] for whatever
// origin the kernel uses (the box arithmetic is origin-independent).
type Dim struct {
	Loop  string
	Size  int
	Count int
}

// TileMap names the scheduled dimensions of a nest, outermost first.
// Loops not listed run *inside* each tile in their original order.
type TileMap struct {
	Dims []Dim
}

// Edge is one cross-tile dependence: a box of tile-coordinate deltas
// (per scheduled dimension, inclusive) that some element dependence can
// realize, annotated with that dependence for diagnostics. The source
// tile must execute strictly before the sink tile T+δ for every
// nonzero δ in the box.
type Edge struct {
	Lo, Hi []int
	Origin string
}

func (e Edge) String() string {
	parts := make([]string, len(e.Lo))
	for i := range e.Lo {
		if e.Lo[i] == e.Hi[i] {
			parts[i] = fmt.Sprintf("%d", e.Lo[i])
		} else {
			parts[i] = fmt.Sprintf("%d..%d", e.Lo[i], e.Hi[i])
		}
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Schedule assigns every tile of a grid to a parallel step.
type Schedule struct {
	Kind Kind
	Dims []Dim
	// Lambda is the wavefront hyperplane (one coefficient per Dim);
	// nil for Batch and Serial.
	Lambda []int
	// Edges are the cross-tile dependences the schedule must honor.
	Edges []Edge
	// certified is set once Certify has proved the assignment; Execute
	// refuses to run without it.
	certified bool
}

// Violation is a certification refusal: a dependence edge connects tile
// A to tile B = A+Delta without B being scheduled strictly after A.
type Violation struct {
	Delta []int
	Edge  Edge
	A, B  []int
	StepA int
	StepB int
}

func (v *Violation) Error() string {
	return fmt.Sprintf(
		"schedule: dependence distance %s of %s connects tile %s (step %d) to tile %s (step %d); the sink must run strictly later",
		vec(v.Delta), v.Edge.Origin, vec(v.A), v.StepA, vec(v.B), v.StepB)
}

func vec(d []int) string {
	parts := make([]string, len(d))
	for i, x := range d {
		parts[i] = fmt.Sprintf("%d", x)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// maxLambda bounds the deterministic hyperplane search. The paper
// kernels need coefficients up to 3 (the time pipeline's λ=(3,2)); 4
// leaves headroom without making the search space noticeable.
const maxLambda = 4

// certifyVolume caps how many concrete deltas one edge box may be
// expanded into; a larger box refuses conservatively rather than
// silently skipping part of the proof.
const certifyVolume = 4096

// Derive builds the weakest certified schedule the dependence table
// allows over the given tile dimensions. extra edges declare
// constraints the nest cannot express (the time pipeline's ring-buffer
// storage reuse); they are clipped and certified like derived ones. A
// table with Unknown dependences, a dependence whose tile deltas admit
// both directions, or a failed certification all refuse with the
// offending dependence.
func Derive(t *deps.Table, tm TileMap, extra ...Edge) (*Schedule, error) {
	if len(tm.Dims) == 0 {
		return nil, fmt.Errorf("schedule: no tile dimensions")
	}
	loopIdx := make([]int, len(tm.Dims))
	for d, dim := range tm.Dims {
		if dim.Size < 1 || dim.Count < 1 {
			return nil, fmt.Errorf("schedule: dimension %s has size %d, count %d", dim.Loop, dim.Size, dim.Count)
		}
		li := t.Nest.LoopIndex(dim.Loop)
		if li < 0 {
			return nil, fmt.Errorf("schedule: nest has no loop %q", dim.Loop)
		}
		loopIdx[d] = li
	}

	s := &Schedule{Dims: tm.Dims}
	for _, dep := range t.Deps {
		if dep.Unknown {
			return nil, fmt.Errorf("schedule: cannot schedule around %s", dep)
		}
		e := Edge{Lo: make([]int, len(tm.Dims)), Hi: make([]int, len(tm.Dims)), Origin: dep.String()}
		for d, dim := range tm.Dims {
			dist := dep.Dist[loopIdx[d]]
			e.Lo[d] = floorDiv(dist, dim.Size)
			e.Hi[d] = ceilDiv(dist, dim.Size)
		}
		s.addEdge(e)
	}
	for _, e := range extra {
		if len(e.Lo) != len(tm.Dims) || len(e.Hi) != len(tm.Dims) {
			return nil, fmt.Errorf("schedule: extra edge %s has %d dims, want %d", e.Origin, len(e.Lo), len(tm.Dims))
		}
		s.addEdge(e)
	}

	if len(s.Edges) == 0 {
		s.Kind = Batch
	} else if err := s.solveLambda(); err != nil {
		return nil, err
	}
	if err := s.Certify(); err != nil {
		return nil, err
	}
	return s, nil
}

// addEdge clips an edge box to the deltas two in-grid tiles can realize
// and keeps it unless it is empty or the all-zero box (which never
// leaves a tile: intra-tile dependences are honored by each tile
// running its iterations in the nest's own order).
func (s *Schedule) addEdge(e Edge) {
	zero := true
	for d, dim := range s.Dims {
		span := dim.Count - 1
		e.Lo[d] = max(e.Lo[d], -span)
		e.Hi[d] = min(e.Hi[d], span)
		if e.Lo[d] > e.Hi[d] {
			return // no pair of in-grid tiles realizes this delta
		}
		if e.Lo[d] != 0 || e.Hi[d] != 0 {
			zero = false
		}
	}
	if zero {
		return
	}
	s.Edges = append(s.Edges, e)
}

// solveLambda finds the hyperplane: the lexicographically smallest
// non-negative λ (by coefficient sum, then order) with λ·δ ≥ 1 for
// every nonzero delta of every edge box. Failure names the delta that
// cannot be scheduled.
func (s *Schedule) solveLambda() error {
	deltas, origins, err := s.expandEdges()
	if err != nil {
		return err
	}
	// A delta with no positive component can never satisfy λ·δ ≥ 1
	// with λ ≥ 0: the dependence points backwards (or sideways) in
	// every scheduled dimension.
	for i, δ := range deltas {
		positive := false
		for _, x := range δ {
			if x > 0 {
				positive = true
				break
			}
		}
		if !positive {
			return fmt.Errorf("schedule: dependence delta %s of %s has no forward component; no wavefront hyperplane can order it", vec(δ), origins[i])
		}
	}
	nd := len(s.Dims)
	lambda := make([]int, nd)
	var best []int
	bestSum := -1
	var walk func(d, sum int)
	walk = func(d, sum int) {
		if bestSum >= 0 && sum > bestSum {
			return
		}
		if d == nd {
			for _, δ := range deltas {
				if dot(lambda, δ) < 1 {
					return
				}
			}
			if bestSum < 0 || sum < bestSum {
				best = append([]int(nil), lambda...)
				bestSum = sum
			}
			return
		}
		for c := 0; c <= maxLambda; c++ {
			lambda[d] = c
			walk(d+1, sum+c)
		}
		lambda[d] = 0
	}
	walk(0, 0)
	if best == nil {
		// Name a concrete unsatisfiable witness: the delta the most
		// permissive candidate still misses.
		wide := make([]int, nd)
		for d := range wide {
			wide[d] = maxLambda
		}
		for i, δ := range deltas {
			if dot(wide, δ) < 1 {
				return fmt.Errorf("schedule: no hyperplane with coefficients 0..%d orders dependence delta %s of %s", maxLambda, vec(δ), origins[i])
			}
		}
		return fmt.Errorf("schedule: no hyperplane with coefficients 0..%d orders every dependence delta", maxLambda)
	}
	s.Lambda = best
	s.Kind = Wavefront
	for _, δ := range deltas {
		for _, x := range δ {
			if x < 0 {
				s.Kind = Diamond
			}
		}
	}
	return nil
}

// expandEdges enumerates every nonzero concrete delta of every edge
// box, deduplicated, each annotated with the origin of one edge that
// admits it.
func (s *Schedule) expandEdges() (deltas [][]int, origins []string, err error) {
	seen := map[string]bool{}
	for _, e := range s.Edges {
		vol := 1
		for d := range e.Lo {
			vol *= e.Hi[d] - e.Lo[d] + 1
			if vol > certifyVolume {
				return nil, nil, fmt.Errorf("schedule: edge box %s of %s admits more than %d deltas; refusing to certify", e, e.Origin, certifyVolume)
			}
		}
		cur := append([]int(nil), e.Lo...)
		for {
			nonzero := false
			for _, x := range cur {
				if x != 0 {
					nonzero = true
					break
				}
			}
			if nonzero {
				key := vec(cur)
				if !seen[key] {
					seen[key] = true
					deltas = append(deltas, append([]int(nil), cur...))
					origins = append(origins, e.Origin)
				}
			}
			d := len(cur) - 1
			for d >= 0 {
				cur[d]++
				if cur[d] <= e.Hi[d] {
					break
				}
				cur[d] = e.Lo[d]
				d--
			}
			if d < 0 {
				break
			}
		}
	}
	return deltas, origins, nil
}

// Step returns the parallel step of a tile coordinate: Batch tiles all
// share step 0, wavefront/diamond tiles take their hyperplane level,
// and Serial tiles their lexicographic rank.
func (s *Schedule) Step(coord []int) int {
	switch s.Kind {
	case Batch:
		return 0
	case Wavefront, Diamond:
		return dot(s.Lambda, coord)
	default:
		step := 0
		for d, dim := range s.Dims {
			step = step*dim.Count + coord[d]
		}
		return step
	}
}

// Tiles returns the number of tiles the schedule covers.
func (s *Schedule) Tiles() int {
	n := 1
	for _, d := range s.Dims {
		n *= d.Count
	}
	return n
}

// Certify proves the step assignment honors every edge, independently
// of how the schedule was derived: for every concrete nonzero delta δ
// an edge box admits and every pair of in-grid tiles (T, T+δ), the
// sink's step must be strictly greater than the source's. It refuses
// with the violating distance vector and the element dependence behind
// it. Batch schedules therefore certify only when no edge survives
// clipping; hand-built step assignments get the same scrutiny as
// derived ones.
func (s *Schedule) Certify() error {
	deltas, origins, err := s.expandEdges()
	if err != nil {
		return err
	}
	coord := make([]int, len(s.Dims))
	sink := make([]int, len(s.Dims))
	for i, δ := range deltas {
		for d := range coord {
			coord[d] = 0
		}
		for {
			in := true
			for d, dim := range s.Dims {
				sink[d] = coord[d] + δ[d]
				if sink[d] < 0 || sink[d] >= dim.Count {
					in = false
					break
				}
			}
			if in {
				sa, sb := s.Step(coord), s.Step(sink)
				if sb <= sa {
					return &Violation{
						Delta: append([]int(nil), δ...),
						Edge:  Edge{Lo: δ, Hi: δ, Origin: origins[i]},
						A:     append([]int(nil), coord...),
						B:     append([]int(nil), sink...),
						StepA: sa,
						StepB: sb,
					}
				}
			}
			d := len(coord) - 1
			for d >= 0 {
				coord[d]++
				if coord[d] < s.Dims[d].Count {
					break
				}
				coord[d] = 0
				d--
			}
			if d < 0 {
				break
			}
		}
	}
	s.certified = true
	return nil
}

// String summarizes the schedule for diagnostics.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s over", s.Kind)
	for _, d := range s.Dims {
		fmt.Fprintf(&b, " %s/%d×%d", d.Loop, d.Size, d.Count)
	}
	if s.Lambda != nil {
		fmt.Fprintf(&b, " λ=%s", vec(s.Lambda))
	}
	if len(s.Edges) > 0 {
		b.WriteString(" edges")
		for _, e := range s.Edges {
			b.WriteString(" " + e.String())
		}
	}
	return b.String()
}

func dot(a, b []int) int {
	s := 0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// floorDiv and ceilDiv are integer division rounding toward -∞ and +∞,
// the tile-coordinate mapping deps.Certify uses for strip-mined loops.
func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

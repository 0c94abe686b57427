package cache

// Batched trace representation. Stencil address streams are almost
// entirely strided bursts: each row of a kernel sweep touches a handful
// of array columns at a fixed element stride. A Run captures one such
// burst, and a slice of Runs captures a whole sweep in a few thousand
// entries instead of hundreds of millions of per-access interface calls.
//
// Because miss counts depend on the exact interleaving of accesses (two
// streams that map to the same cache set ping-pong a line only when their
// accesses alternate), runs carry grouping information that preserves the
// original order: a group of runs flagged Cont executes in lockstep, one
// access per run per index, exactly the order a per-access walker would
// have produced. ExpandRuns is the definitional semantics; the batched
// replay engine in replay.go must be indistinguishable from it.

// Run is one strided burst of accesses: Count accesses at Base,
// Base+Stride, ... Base+(Count-1)*Stride, all loads or all stores.
type Run struct {
	// Base is the byte address of the first access.
	Base int64
	// Stride is the byte distance between consecutive accesses. It may be
	// zero (a repeated access) or negative.
	Stride int64
	// Count is the number of accesses.
	Count int32
	// Store marks the run as writes rather than reads.
	Store bool
	// Cont marks the run as a continuation of the previous run: the two
	// execute in lockstep (index i of every run in the group issues before
	// index i+1 of any). A continuation only binds when its Count equals
	// the group leader's; a Cont run with a different Count starts a new
	// group. The first run of a stream must have Cont unset.
	Cont bool
}

// RunSink consumes a batched address stream. Implementations must not
// retain or modify the slice: emitters reuse their run buffers between
// calls and rewrite only the fields that change.
type RunSink interface {
	ReplayRuns(runs []Run)
}

// groupEnd returns the index one past the lockstep group starting at
// start: the leader plus every following Cont run with the same Count.
func groupEnd(runs []Run, start int) int {
	end := start + 1
	for end < len(runs) && runs[end].Cont && runs[end].Count == runs[start].Count {
		end++
	}
	return end
}

// ExpandRuns replays a batched stream into a per-access Memory, in the
// exact order the runs encode: lockstep within each group, groups in
// sequence. This is the reference semantics of the Run representation.
func ExpandRuns(runs []Run, mem Memory) {
	for start := 0; start < len(runs); {
		end := groupEnd(runs, start)
		g := runs[start:end]
		n := int64(g[0].Count)
		for i := int64(0); i < n; i++ {
			for r := range g {
				addr := g[r].Base + i*g[r].Stride
				if g[r].Store {
					mem.Store(addr)
				} else {
					mem.Load(addr)
				}
			}
		}
		start = end
	}
}

// PerAccess adapts any Memory to the RunSink interface by expanding each
// batch one access at a time — the compatibility shim that keeps the
// per-access Memory implementations (recorders, probes, custom sinks)
// usable with the batched walkers.
type PerAccess struct {
	Mem Memory
}

// ReplayRuns expands the batch into individual Load/Store calls.
func (p PerAccess) ReplayRuns(runs []Run) { ExpandRuns(runs, p.Mem) }

// RunRecorder captures a batched trace so one walker pass can be
// replayed into many sinks (cache configurations) afterwards.
type RunRecorder struct {
	Runs []Run
	// Marks records the walker's plane-phase markers with their position
	// in Runs, so ReplayInto can reproduce the marked stream for sinks
	// (like the steady-state engine) that exploit phase structure.
	Marks []RecordedMark
}

// RecordedMark is a plane marker captured at a position in a recorded
// run stream.
type RecordedMark struct {
	// Pos is the index in Runs the marker was emitted at: all runs
	// before it belong to the marked unit (or earlier ones).
	Pos  int
	Mark PlaneMark
}

// ReplayRuns appends a copy of the batch.
func (r *RunRecorder) ReplayRuns(runs []Run) { r.Runs = append(r.Runs, runs...) }

// PlaneMark records the marker at the current stream position.
func (r *RunRecorder) PlaneMark(m PlaneMark) {
	r.Marks = append(r.Marks, RecordedMark{Pos: len(r.Runs), Mark: m})
}

// ReplayInto replays the recorded trace into a sink, re-emitting the
// recorded plane markers at their original positions.
func (r *RunRecorder) ReplayInto(sink RunSink) {
	ps, _ := sink.(PlaneSink)
	pos := 0
	for _, m := range r.Marks {
		if m.Pos > pos {
			sink.ReplayRuns(r.Runs[pos:m.Pos])
			pos = m.Pos
		}
		if ps != nil {
			ps.PlaneMark(m.Mark)
		}
	}
	if pos < len(r.Runs) {
		sink.ReplayRuns(r.Runs[pos:])
	}
}

// Reset discards the recorded trace, keeping the backing storage for
// reuse across sweeps.
func (r *RunRecorder) Reset() {
	r.Runs = r.Runs[:0]
	r.Marks = r.Marks[:0]
}

// ReplayRuns counts the batch without expanding it.
func (m *NullMemory) ReplayRuns(runs []Run) {
	for _, r := range runs {
		if r.Count <= 0 {
			continue
		}
		if r.Store {
			m.StoreCount += uint64(r.Count)
		} else {
			m.LoadCount += uint64(r.Count)
		}
	}
}

// ReplayRuns records the expanded access stream.
func (r *Recorder) ReplayRuns(runs []Run) { ExpandRuns(runs, r) }

var (
	_ RunSink   = (*Hierarchy)(nil)
	_ RunSink   = (*NullMemory)(nil)
	_ RunSink   = (*Recorder)(nil)
	_ RunSink   = (*RunRecorder)(nil)
	_ PlaneSink = (*RunRecorder)(nil)
	_ RunSink   = PerAccess{}
)

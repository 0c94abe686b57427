package cache

import "fmt"

// Delta simulation. A sweep point's trace decomposes into PlaneMark
// phases. While tracing (the warm sweep), the steady engine keeps a
// complete record of every phase: per-unit anchors (run streams modulo
// translation), per-unit stats deltas, state pins, and the raw end
// state. Those records form the *sweep trace*: a later identical sweep
// replays from them — O(runs) anchor replays plus one state compare per
// phase — instead of walking the workload again.
//
// Exactness argument, in three steps:
//
//  1. A record is only kept whole-phase: the phase ended with every
//     unit anchored (endPhase → archivePhase), so the record reproduces
//     the phase's stream, stats, and end state from the state the traced
//     sweep entered it with. Records are never overwritten while the
//     trace exists.
//  2. Replaying a later sweep: the workload's trace is a pure function
//     of its plan, so the sweep's stream is byte-identical to the traced
//     warm sweep's. For each phase the engine replays the record's
//     anchors unit by unit — this IS the phase's stream, so the live
//     state evolves exactly as full simulation would — until the live
//     state equals one of the record's pins (raw order-normalized
//     equality). From the pin on, the remainder is the recorded
//     remainder: stats deltas are summed and the recorded end state
//     restored.
//  3. Chaining: once one phase of the replay has committed via a pin
//     (or a full replay landed exactly on the record's end state), the
//     live state equals the record's end state — which is, by step 1,
//     the state the traced sweep entered its *next* phase with. Every
//     subsequent phase therefore starts from its record's entry state
//     and commits whole with zero replay. The fixed-point corollary: if
//     the first delta-replayed sweep pinned anywhere, its end state
//     equals the traced sweep's end state, so the next sweep starts from
//     the exact state the previous one did and the whole sweep commits
//     via the instant-repeat cache with a single state compare.
//
// A trace that cannot be completed — a phase that ended without a whole
// record, more phases than steadyHistory, a recycled anchor table —
// refuses the delta replay before ANY mutation, and the caller falls
// back to full simulation. Degraded or partial reuse never happens: the
// replay is all-or-nothing per sweep.

// deltaState is the engine's delta layer (a field of Steady).
type deltaState struct {
	tracing bool
	ok      bool          // the trace in progress is still complete
	starts  int           // phases begun while tracing
	recs    []steadyPhase // one record per traced phase, in trace order
	traced  bool          // a complete trace is available
	stale   bool          // the anchor table was recycled since the trace was captured

	// Instant-repeat cache: the entry encode, summed stats, and raw end
	// state of the last fully delta-replayed sweep. A sweep starting
	// from the same state commits with one compare.
	repOK    bool
	repEnc   [][]int64
	repTot   []Stats
	repTags  [][]int64
	repDirty [][]bool
	repStamp [][]uint64

	diag DeltaDiag
}

// DeltaDiag counts what the delta layer did for one engine.
type DeltaDiag struct {
	Traced bool // a complete sweep trace was captured

	Sweeps          uint64 // sweeps completed by delta replay
	Instant         uint64 // of those, via the instant-repeat cache
	PhasesCommitted uint64 // phases committed from a record
	PhasesChained   uint64 // of those, entered chained (no pin hunt)
	PhasesReplayed  uint64 // phases replayed in full (no pin matched)
	UnitsReplayed   uint64 // units replayed from anchors (up to a pin hit)
	UnitsSkipped    uint64 // units committed without replay
	PinCompares     uint64 // state encodes+compares spent hunting pins
	Fallbacks       uint64 // ReplayDeltaSweep refusals (stale trace)
}

// String renders the counters compactly for -v diagnostics.
func (d DeltaDiag) String() string {
	return fmt.Sprintf("traced=%v sweeps=%d(instant=%d) phases[commit=%d chain=%d replay=%d] units[replay=%d skip=%d] pincmp=%d fallback=%d",
		d.Traced, d.Sweeps, d.Instant, d.PhasesCommitted,
		d.PhasesChained, d.PhasesReplayed, d.UnitsReplayed, d.UnitsSkipped,
		d.PinCompares, d.Fallbacks)
}

// DeltaInfo returns the delta-layer counters.
func (s *Steady) DeltaInfo() DeltaDiag {
	d := s.dl.diag
	d.Traced = s.dl.traced
	return d
}

// DeltaTraceBegin arms trace capture: the next sweep fed through the
// engine (normally the warm sweep) is traced phase by phase, replacing
// any earlier trace. Tracing forces the engine to record even
// budget-refused and pin-less phases, so the trace can be complete for
// streams whose phases the steady machinery would otherwise replay
// without recording.
func (s *Steady) DeltaTraceBegin() {
	s.dl.tracing = true
	s.dl.ok = true
	s.dl.starts = 0
	s.dl.recs = nil
	s.dl.traced = false
	s.dl.stale = false
	s.dl.repOK = false
}

// DeltaTraceEnd disarms capture and reports whether a complete trace
// was obtained: the engine must be idle (no phase in flight), and every
// phase begun while tracing must have archived its record. Phases that
// ended without archiving (live-mode abort, over-long units) leave
// starts > len(recs) and fail the reconciliation.
func (s *Steady) DeltaTraceEnd() bool {
	d := &s.dl
	d.tracing = false
	d.traced = d.ok && s.mode == steadyIdle && d.starts > 0 && d.starts == len(d.recs)
	d.diag.Traced = d.traced
	return d.traced
}

// archivePhase appends the completed phase's record to the trace.
// beginPhase has already failed a trace with more than steadyHistory
// phases, so the trace stays within that bound.
func (s *Steady) archivePhase() {
	r := steadyPhase{
		delta:    s.delta,
		planes:   s.planes,
		anchors:  append([]int(nil), s.curAnchors...),
		deltas:   s.curDeltas,
		pins:     s.curPins,
		endTags:  make([][]int64, len(s.levels)),
		endDirty: make([][]bool, len(s.levels)),
		endStamp: make([][]uint64, len(s.levels)),
	}
	s.curDeltas, s.curPins = nil, nil
	for i, c := range s.levels {
		r.endTags[i] = append([]int64(nil), c.tags...)
		r.endDirty[i] = append([]bool(nil), c.dirty...)
		if c.stamp != nil {
			r.endStamp[i] = append([]uint64(nil), c.stamp...)
		}
	}
	s.dl.recs = append(s.dl.recs, r)
}

// deltaPinBudget caps the state encodes spent hunting a pin within one
// sweep replay: after this many consecutive misses the replay stops
// comparing and relies on full phase replays plus end-state chaining.
// It resets on the first hit (chaining makes later compares free).
const deltaPinBudget = 64

// ReplayDeltaSweep reproduces one whole sweep from the traced records,
// or returns false having changed nothing (the caller must then replay
// the sweep through the workload as usual). Callable only between
// sweeps (engine idle) after a successful DeltaTraceEnd.
func (s *Steady) ReplayDeltaSweep() bool {
	d := &s.dl
	if !d.traced || s.mode != steadyIdle {
		return false
	}
	if d.stale {
		d.diag.Fallbacks++
		return false
	}
	if d.repOK {
		s.encodeCurrent()
		d.diag.PinCompares++
		if encEq(s.encScratch, d.repEnc) {
			for li, c := range s.levels {
				c.stats.Add(d.repTot[li])
				copy(c.tags, d.repTags[li])
				copy(c.dirty, d.repDirty[li])
				if c.stamp != nil {
					copy(c.stamp, d.repStamp[li])
				}
			}
			d.diag.Sweeps++
			d.diag.Instant++
			s.skipTraced()
			return true
		}
	}
	// Capture the entry state and stats so a full replay can populate
	// the instant-repeat cache (and so the accounting below is relative).
	s.encodeCurrent()
	if d.repEnc == nil {
		d.repEnc = make([][]int64, len(s.levels))
	}
	for li := range s.levels {
		d.repEnc[li] = append(d.repEnc[li][:0], s.encScratch[li]...)
	}
	if d.repTot == nil {
		d.repTot = make([]Stats, len(s.levels))
	}
	for li, c := range s.levels {
		d.repTot[li] = c.stats
	}
	d.repOK = false

	chained := false
	budget := deltaPinBudget
	for i := range d.recs {
		r := &d.recs[i]
		if chained {
			// The live state equals the state the traced sweep entered
			// this phase with, which the record was measured from.
			s.deltaCommitFrom(r, -1)
			d.diag.PhasesCommitted++
			d.diag.PhasesChained++
			d.diag.UnitsSkipped += uint64(r.planes)
			continue
		}
		hit := -1
		for u := 0; u < r.planes; u++ {
			a := &s.anchors[r.anchors[u]]
			s.replayShifted(a.runs, int64(u-a.unit)*r.delta)
			d.diag.UnitsReplayed++
			if u >= r.planes-1 {
				break
			}
			if pin := phasePinAt(r, u); pin != nil && budget > 0 {
				s.encodeCurrent()
				d.diag.PinCompares++
				if encEq(s.encScratch, pin.data) {
					hit = u
					budget = deltaPinBudget
					break
				}
				budget--
			}
		}
		if hit >= 0 {
			s.deltaCommitFrom(r, hit)
			chained = true
			d.diag.PhasesCommitted++
			d.diag.UnitsSkipped += uint64(r.planes - 1 - hit)
		} else {
			// The phase replayed in full; if it happened to land exactly
			// on the record's end state, later phases chain anyway.
			d.diag.PhasesReplayed++
			chained = s.deltaEndStateEq(r)
		}
	}
	s.skipTraced()
	d.diag.Sweeps++
	if chained {
		// Fixed point: the sweep ended in the recorded end state, which
		// is also the state it started from on the traced run's repeat —
		// so the entry capture above plus the totals below make the next
		// identical sweep a single compare.
		for li, c := range s.levels {
			d.repTot[li] = subStats(c.stats, d.repTot[li])
		}
		if d.repTags == nil {
			d.repTags = make([][]int64, len(s.levels))
			d.repDirty = make([][]bool, len(s.levels))
			d.repStamp = make([][]uint64, len(s.levels))
		}
		for li, c := range s.levels {
			d.repTags[li] = append(d.repTags[li][:0], c.tags...)
			d.repDirty[li] = append(d.repDirty[li][:0], c.dirty...)
			d.repStamp[li] = d.repStamp[li][:0]
			if c.stamp != nil {
				d.repStamp[li] = append(d.repStamp[li], c.stamp...)
			}
		}
		d.repOK = true
	}
	return true
}

// skipTraced accounts a delta-replayed sweep as skipped walker units
// (the anchors were replayed by the engine, not the walker).
func (s *Steady) skipTraced() {
	for i := range s.dl.recs {
		s.skipped += uint64(s.dl.recs[i].planes)
	}
}

// phasePinAt returns record r's pin at unit u, if any.
func phasePinAt(r *steadyPhase, u int) *steadyPin {
	for i := range r.pins {
		if r.pins[i].unit == u {
			return &r.pins[i]
		}
	}
	return nil
}

// deltaCommitFrom adds the recorded per-unit stats deltas of units
// from+1..planes-1 (all units when from < 0) and restores the record's
// raw end state. The stream identity that makes this exact is
// established by the workload's determinism, enforced differentially in
// tests.
func (s *Steady) deltaCommitFrom(r *steadyPhase, from int) {
	for u := from + 1; u < r.planes; u++ {
		for li, dd := range r.deltas[u] {
			c := s.levels[li]
			c.stats.Add(dd)
		}
	}
	for li, c := range s.levels {
		copy(c.tags, r.endTags[li])
		copy(c.dirty, r.endDirty[li])
		if c.stamp != nil && len(r.endStamp[li]) == len(c.stamp) {
			copy(c.stamp, r.endStamp[li])
		}
	}
}

// deltaEndStateEq reports whether the live state equals record r's end
// state. Only direct-mapped levels compare cheaply and exactly by raw
// (tag, dirty); any set-associative level makes this conservatively
// false (raw stamps are not order-normalized).
func (s *Steady) deltaEndStateEq(r *steadyPhase) bool {
	for li, c := range s.levels {
		if c.assoc != 1 {
			return false
		}
		et, ed := r.endTags[li], r.endDirty[li]
		if len(et) != len(c.tags) {
			return false
		}
		for i := range c.tags {
			if c.tags[i] != et[i] || c.dirty[i] != ed[i] {
				return false
			}
		}
	}
	return true
}

// levelSink stamps a fixed Level onto every PlaneMark passing through
// it, so multi-grid walkers (multigrid V-cycles) can distinguish
// identically-shaped phases on different grid levels.
type levelSink struct {
	RunSink
	level int
}

func (ls levelSink) PlaneMark(m PlaneMark) {
	m.Level = ls.level
	MarkPlane(ls.RunSink, m)
}

// WithLevel wraps a sink so every marker emitted through the wrapper
// carries the given phase level. Wrapping a sink that does not
// understand markers is harmless (markers stay dropped).
func WithLevel(sink RunSink, level int) RunSink {
	return levelSink{sink, level}
}

var (
	_ RunSink   = levelSink{}
	_ PlaneSink = levelSink{}
)

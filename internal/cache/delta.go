package cache

import "fmt"

// Delta simulation. A sweep point's trace decomposes into PlaneMark
// phases. While WarmMeasure's warm-up sweep runs through the steady
// engine, the engine keeps a record of every phase whose markers are
// regular: state pins (each with the statistics of the rest of its
// phase), the phase total and the raw end state. Records hold no copy
// of the stream. Every measured sweep walks the workload through the
// engine again, and the engine serves it from the records.
//
// Exactness argument, in three steps:
//
//  1. A record describes its phase as the warm-up ran it: from each pin
//     (the state after unit u) the rest of the phase added the pin's
//     statistics and ended in the recorded end state.
//  2. A measured sweep: the workload's stream is a pure function of its
//     plan, so each phase's stream is byte-identical to the warm-up's.
//     In a recorded phase the engine simulates units until the live
//     state equals one of the record's pins (raw order-normalized
//     equality). From the pin on, the rest of the phase is the recorded
//     rest: its statistics are added, the recorded end state restored,
//     and the phase's remaining runs ignored — an emitter that asks
//     SkipRest (PhaseSkipper) does not even generate them.
//  3. Chaining: once a phase has committed (or a simulated phase landed
//     exactly on its record's end state), the live state equals the
//     state the warm-up entered the *next* phase with, which that
//     phase's record was measured from — so it commits whole on entry.
//     A phase with no record is simulated and keeps the chain, because
//     simulating the same stream from an equal state ends in an equal
//     state. The fixed point: a first measured sweep that ends chained
//     ends in the warm-up's end state, which is the state it began
//     from, so every later sweep repeats it (WarmMeasure).
//
// Stream identity is what makes a commit exact, and it cannot be
// checked without a copy of the stream. A walked marker that disagrees
// with its record means the source diverged from its warm-up: the
// engine panics, and callers that isolate panics (the bench ladder)
// retry the point raw.

// steadyPhase is the record of one warm-up phase: its shape, the pins,
// the phase total and the raw end state. While the phase is recorded,
// total holds the statistics at its start and each pin's rest those at
// the pin; archivePhase turns both into differences.
type steadyPhase struct {
	delta  int64
	planes int
	level  int
	pins   []steadyPin
	total  []Stats
	// The raw state at the end of the phase. A measured sweep that
	// matches a pin repeats the warm-up's stream from there on, so it ends
	// in exactly this state (stamp values are stale but their order — all
	// that affects behavior — is preserved).
	endTags  [][]int64
	endDirty [][]bool
	endStamp [][]uint64
	// unwrapped marks a phase the coverage rule refused, recorded with
	// pins only while checkCoverage is set.
	unwrapped bool
}

// pinAt returns the record's pin at unit u, if any.
func (r *steadyPhase) pinAt(u int) *steadyPin {
	for i := range r.pins {
		if r.pins[i].unit == u {
			return &r.pins[i]
		}
	}
	return nil
}

// deltaState is the engine's delta layer (a field of Steady).
type deltaState struct {
	recording bool           // the warm-up sweep is being recorded
	measuring bool           // a measured sweep is being served from the records
	recs      []*steadyPhase // per warm-up phase, in order; nil where none was kept
	traced    bool           // the warm-up ended between phases with a record kept
	// cur is the record of the current phase: being assembled during the
	// warm-up (nil once dropped), or being served in a measured sweep.
	cur     *steadyPhase
	ord     int  // phases begun in the measured sweep
	chained bool // the live state equals the warm-up's at this point
	budget  int  // pin compares left before the next hit

	diag DeltaDiag
}

// DeltaDiag counts what the delta layer did for one engine.
type DeltaDiag struct {
	Traced bool // the warm-up left phase records

	Sweeps          uint64 // measured sweeps served from the records
	Instant         uint64 // of those, repeats of a first sweep that ended chained
	PhasesCommitted uint64 // phases committed from a record
	PhasesChained   uint64 // of those, committed whole on entry
	PhasesReplayed  uint64 // recorded phases simulated in full (no pin matched)
	UnitsReplayed   uint64 // units of recorded phases simulated (up to a pin hit)
	UnitsSkipped    uint64 // units committed without simulation
	PinCompares     uint64 // state encodes+compares spent hunting pins
	Fallbacks       uint64 // measured-sweep phases with no record, run live
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

// recordSweep walks the warm-up sweep through the engine, keeping a
// record of every phase whose markers are regular. The records stand
// only if the sweep ended between phases.
func (s *Steady) recordSweep(sweep func(RunSink)) {
	d := &s.dl
	d.recording, d.recs = true, nil
	sweep(s)
	d.recording, d.cur, d.traced = false, nil, false
	if s.mode == steadyIdle {
		for _, r := range d.recs {
			d.traced = d.traced || r != nil
		}
	}
	if !d.traced {
		d.recs = nil
	}
}

// beginRecord opens the record of a phase starting in the warm-up.
func (s *Steady) beginRecord() {
	d := &s.dl
	d.cur = nil
	if !d.recording {
		return
	}
	d.cur = &steadyPhase{total: make([]Stats, len(s.h.levels))}
	for li, c := range s.h.levels {
		d.cur.total[li] = c.stats
	}
	d.recs = append(d.recs, nil)
}

// archivePhase completes the record of a phase that ended with every
// marker regular.
func (s *Steady) archivePhase() {
	r := s.dl.cur
	s.dl.cur = nil
	r.delta, r.planes, r.level, r.unwrapped = s.delta, s.planes, s.level, s.unwrapped
	r.endTags = make([][]int64, len(s.h.levels))
	r.endDirty = make([][]bool, len(s.h.levels))
	r.endStamp = make([][]uint64, len(s.h.levels))
	for li, c := range s.h.levels {
		r.total[li] = subStats(c.stats, r.total[li])
		for i := range r.pins {
			r.pins[i].rest[li] = subStats(c.stats, r.pins[i].rest[li])
		}
		r.endTags[li] = append(take(&s.freeWords, len(c.tags))[:0], c.tags...)
		r.endDirty[li] = append(take(&s.freeFlags, len(c.dirty))[:0], c.dirty...)
		if c.stamp != nil {
			r.endStamp[li] = append(take(&s.freeStamps, len(c.stamp))[:0], c.stamp...)
		}
	}
	s.dl.recs[len(s.dl.recs)-1] = r
}

// deltaPinBudget caps the state encodes spent hunting a pin within one
// measured sweep: after this many consecutive misses the sweep stops
// comparing and relies on simulating whole phases plus end-state
// chaining. It resets on the first hit (chaining makes later compares
// free).
const deltaPinBudget = 64

// measureSweep walks one measured sweep through the engine, serving
// each phase from its record, and reports whether the sweep ended
// chained. Without records the sweep is simply walked.
func (s *Steady) measureSweep(sweep func(RunSink)) bool {
	d := &s.dl
	if !d.traced {
		sweep(s)
		return false
	}
	d.measuring, d.ord, d.chained, d.budget = true, 0, false, deltaPinBudget
	sweep(s)
	d.measuring = false
	if s.mode != steadyIdle || d.ord != len(d.recs) {
		panic(fmt.Sprintf("cache: measured sweep diverged from its warm-up: it stopped after beginning %d of %d phases",
			d.ord, len(d.recs)))
	}
	d.diag.Sweeps++
	return d.chained
}

// enterRecord starts a phase of a measured sweep. It reports false when
// the warm-up kept no record of the phase, which then runs through
// detection like any other; otherwise the phase commits whole if the
// sweep is chained, or hunts the record's pins.
func (s *Steady) enterRecord() bool {
	d := &s.dl
	if d.ord >= len(d.recs) {
		panic(fmt.Sprintf("cache: measured sweep diverged from its warm-up: it began phase %d of %d", d.ord, len(d.recs)))
	}
	r := d.recs[d.ord]
	d.ord++
	if r == nil {
		d.diag.Fallbacks++
		return false
	}
	d.cur = r
	s.unit, s.delta, s.planes, s.level = 0, r.delta, r.planes, r.level
	if !d.chained {
		s.mode = steadyHunt
		return true
	}
	// The live state equals the state the warm-up entered this phase
	// with, which the record was measured from.
	s.commitRecord(r, r.total)
	d.diag.PhasesCommitted++
	d.diag.PhasesChained++
	d.diag.UnitsSkipped += uint64(r.planes)
	s.mode = steadyDrain
	return true
}

// huntMark closes a simulated unit of a recorded phase. Where the live
// state equals the record's pin, the rest of the phase commits from the
// record.
func (s *Steady) huntMark(mk PlaneMark) {
	d := &s.dl
	r := d.cur
	if !s.regular(mk) {
		s.diverged(mk)
	}
	d.diag.UnitsReplayed++
	if s.unit == r.planes-1 {
		// Simulated in full; if it landed exactly on the record's end
		// state, later phases chain anyway.
		d.diag.PhasesReplayed++
		d.chained = s.deltaEndStateEq(r)
		s.mode = steadyIdle
		return
	}
	if pin := r.pinAt(s.unit); pin != nil && d.budget > 0 {
		s.encodeCurrent()
		d.diag.PinCompares++
		if encEq(s.encScratch, pin.data) {
			d.budget = deltaPinBudget
			if r.unwrapped {
				coverageBreaches.Add(1)
			}
			s.commitRecord(r, pin.rest)
			d.chained = true
			d.diag.PhasesCommitted++
			d.diag.UnitsSkipped += uint64(r.planes - 1 - s.unit)
			s.mode = steadyDrain
		} else {
			d.budget--
		}
	}
	s.unit++
}

// drainMark checks a marker of a committed phase against its record; an
// emitter that skipped the rest jumps straight to the closing one.
func (s *Steady) drainMark(mk PlaneMark) {
	if !s.sameShape(mk) || mk.Index != s.unit && mk.Index != s.planes-1 {
		s.diverged(mk)
	}
	if mk.Index == s.planes-1 {
		s.mode = steadyIdle
		return
	}
	s.unit++
}

func (s *Steady) diverged(mk PlaneMark) {
	panic(fmt.Sprintf("cache: measured sweep diverged from its warm-up in phase %d: marker %+v, expected unit %d of %d, Δ=%d, level %d",
		s.dl.ord-1, mk, s.unit, s.planes, s.delta, s.level))
}

// commitRecord adds stats to the levels and restores record r's raw end
// state.
func (s *Steady) commitRecord(r *steadyPhase, stats []Stats) {
	for li, c := range s.h.levels {
		c.stats.Add(stats[li])
		copy(c.tags, r.endTags[li])
		copy(c.dirty, r.endDirty[li])
		copy(c.stamp, r.endStamp[li])
	}
}

// deltaEndStateEq reports whether the live state equals record r's end
// state as the replacement policy sees it. A direct-mapped level
// compares raw (tag, dirty). A set-associative level compares each set's
// resident lines with their dirty bits and their recency order: raw
// stamps differ between sweeps and ways may hold the lines in another
// arrangement, but LRU behavior depends on neither.
func (s *Steady) deltaEndStateEq(r *steadyPhase) bool {
	for li, c := range s.h.levels {
		et, ed := r.endTags[li], r.endDirty[li]
		if len(et) != len(c.tags) {
			return false
		}
		if c.assoc == 1 {
			for i := range c.tags {
				if c.tags[i] != et[i] || c.dirty[i] != ed[i] {
					return false
				}
			}
			continue
		}
		es := r.endStamp[li]
		for b := 0; b < len(c.tags); b += c.assoc {
			if !sameLRUSet(c.tags[b:b+c.assoc], c.dirty[b:b+c.assoc], c.stamp[b:b+c.assoc],
				et[b:b+c.assoc], ed[b:b+c.assoc], es[b:b+c.assoc]) {
				return false
			}
		}
	}
	return true
}

// sameLRUSet reports whether two states of one set hold the same lines
// with the same dirty bits in the same recency order, whatever ways
// hold them. Tags are unique within a set, and valid ways' stamps are
// distinct.
func sameLRUSet(ta []int64, da []bool, sa []uint64, tb []int64, db []bool, sb []uint64) bool {
	var match [64]int // way of tb holding ta's line; sets wider than 64 ways never compare equal
	if len(ta) > len(match) {
		return false
	}
	na, nb := 0, 0
	for w, t := range ta {
		if t == -1 {
			continue
		}
		na++
		match[w] = -1
		for v, u := range tb {
			if u == t {
				match[w] = v
			}
		}
		if v := match[w]; v < 0 || da[w] != db[v] {
			return false
		}
	}
	for _, u := range tb {
		if u != -1 {
			nb++
		}
	}
	if na != nb {
		return false
	}
	for w := range ta {
		for x := 0; x < w; x++ {
			if ta[w] != -1 && ta[x] != -1 && (sa[w] < sa[x]) != (sb[match[w]] < sb[match[x]]) {
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

// SkipRest forwards the wrapped sink's answer (PhaseSkipper).
func (ls levelSink) SkipRest() bool {
	ps, ok := ls.RunSink.(PhaseSkipper)
	return ok && ps.SkipRest()
}

// WithLevel wraps a sink so every marker emitted through the wrapper
// carries the given phase level. Wrapping a sink that does not
// understand markers is harmless (markers stay dropped).
func WithLevel(sink RunSink, level int) RunSink {
	return levelSink{sink, level}
}

var (
	_ RunSink      = levelSink{}
	_ PlaneSink    = levelSink{}
	_ PhaseSkipper = levelSink{}
)

package cache

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Steady-state plane-cycle detection. The paper's kernels traverse the
// grid one plane (or tile-row) at a time, and after the startup planes
// each plane's address stream is an exact translate of the previous one
// by a constant byte distance Δ (the plane stride). The simulated cache
// state, *normalized relative to the plane base address*, is therefore
// eventually periodic in the plane index, and once a period is
// established the remaining planes' statistics can be extrapolated
// arithmetically instead of simulated.
//
// The walkers cooperate by emitting a PlaneMark after each phase unit
// (an untiled k-plane, a tile-row, a 2D row ...). The Steady engine sits
// between a walker and a Hierarchy as a RunSink and runs a small
// state machine per phase:
//
//   observe   replay every batch and record the unit's runs (the
//             "pattern", stored absolute, compared under translation),
//             the unit's per-level stats delta, and — at alignment
//             multiples t0 — a normalized snapshot of the full cache
//             state. A cycle candidate is a period T (a multiple of t0)
//             whose snapshots hash-match; it is confirmed only by
//             identical per-unit stats deltas, translate-equal unit
//             patterns, and a FULL normalized state comparison, so a
//             confirmed cycle is exact by construction, not a lossy
//             fingerprint match.
//   skip      no simulation. Each arriving batch is verified against the
//             recorded pattern ring (translate-equality); whole verified
//             periods are committed. When the planned periods are all
//             verified the engine adds (periods x cycle stats) to the
//             levels and translates the cache state by the skipped
//             distance, which reproduces the exact final state. Any
//             deviation (boundary tiles, clamped planes, a surprise
//             mark) triggers a flush: the committed skip is applied, the
//             uncommitted verified units are replayed from the ring, and
//             the engine falls back to live replay.
//   live      plain replay until the phase ends.
//
// While WarmMeasure's warm-up sweep runs through the engine (delta.go),
// it also keeps a record of every phase whose markers are regular: a few
// "pins" — order-normalized copies of the cache state at chosen unit
// boundaries, each with the statistics the rest of the phase added — the
// phase total and the raw end state. Records hold no copy of the stream.
// Outside the warm-up no phase record is kept.
//
// Exactness argument: the full normalized state comparison establishes
// S_q == translate(S_p, TΔ) for p = q-T, and the per-batch verification
// establishes that every later unit's stream is the translate of the
// unit T before it. By induction each verified unit behaves identically
// (same hits, misses, evictions) to the unit one period earlier, so each
// whole period contributes exactly the measured cycle stats and
// translates the state by TΔ. Normalization is only possible when the
// translation distance is line-aligned at every level: the engine
// snapshots only at unit indices divisible by t0 = max over levels of
// lineBytes/gcd(Δ, lineBytes) and refuses steadiness (falls back to full
// replay) when t0 exceeds maxPeriod — the "pathological padding" case —
// when Δ is not constant
// across arrays (the walkers emit Δ=0 then), when the phase cannot wrap
// some level before it ends (the coverage rule, wrapsEveryLevel), or when a
// phase unit's work is too small to amortize the snapshots.

const steadyInvalidEnc = -1 << 63

// PlaneMark is the phase marker a walker emits after each phase unit
// (plane). Delta is the byte translation between consecutive units'
// address streams (0 when the walker cannot guarantee a uniform
// translation, e.g. arrays with mixed strides); Index is the 0-based
// ordinal of the unit just completed; Planes is the total number of
// units in the phase. Index==Planes-1 ends the phase. Level
// distinguishes otherwise identically-shaped phases from different
// contexts (multigrid emits one level per grid in the hierarchy, see
// WithLevel); single-grid walkers leave it zero.
type PlaneMark struct {
	Delta  int64
	Index  int
	Planes int
	Level  int
}

// PlaneSink is a RunSink that also understands plane-phase markers.
type PlaneSink interface {
	RunSink
	PlaneMark(m PlaneMark)
}

// PhaseSkipper is implemented by plane sinks that can decline the rest
// of a phase. An emitter asks after each phase marker but the closing
// one; when SkipRest reports true it emits only the phase's closing
// marker (Index == Planes-1) and none of the remaining units' runs.
// Sinks without the method receive the whole stream.
type PhaseSkipper interface {
	SkipRest() bool
}

// MarkPlane delivers a plane marker to sinks that understand them and is
// a no-op for every other sink, so walkers can emit markers
// unconditionally.
func MarkPlane(sink RunSink, m PlaneMark) {
	if ps, ok := sink.(PlaneSink); ok {
		ps.PlaneMark(m)
	}
}

type steadyMode int

const (
	steadyIdle    steadyMode = iota
	steadyObserve            // detection: replay, record patterns, snapshot
	steadySkip               // a confirmed cycle: verify batches, commit periods
	steadyLive               // plain replay to the phase end
	steadyHunt               // measured sweep, recorded phase: replay until a pin matches
	steadyDrain              // measured sweep, committed phase: drop the rest
)

// steadyAnchor is one distinct unit pattern of the current phase,
// stored with absolute addresses. Units whose streams are translates of
// an anchor reference it instead of storing their runs, so a phase keeps
// one copy per distinct pattern shape (untiled sweeps have one,
// red-black two, tiled sweeps one plus clamped boundary shapes) no
// matter how many units it observes. Two units have translate-equal
// patterns iff they reference the same anchor: a unit only becomes a new
// anchor when it matches no existing one, so distinct anchors are never
// translates of each other.
type steadyAnchor struct {
	unit int
	runs []Run
}

// steadyPat is one observed phase unit: the anchor its runs are a
// translate of and its per-level stats delta.
type steadyPat struct {
	unit   int
	anchor int
	delta  []Stats
}

// steadySnap is a normalized state snapshot taken after one unit.
type steadySnap struct {
	unit int
	hash uint64
	// data holds, per level, one encoded word per cache slot: the tag
	// minus the unit's translation distance, shifted left one with the
	// dirty bit in bit 0, at the rotated set position; set-associative
	// sets are listed most-recent first so LRU stamps compare by order,
	// not value. Invalid slots encode as steadyInvalidEnc.
	data [][]int64
	cum  []Stats
}

// steadyPin is an order-normalized encoding of the full cache state at
// the end of one phase unit (encodeLevel with zero translation) and the
// per-level statistics the rest of its phase added. A measured sweep
// whose live state equals a pin commits the rest of the phase from it.
type steadyPin struct {
	unit int
	data [][]int64
	rest []Stats
}

// Steady is the steady-state engine: a PlaneSink that wraps a Hierarchy
// and produces bit-identical statistics and final state to replaying
// every batch directly.
type Steady struct {
	h     *Hierarchy
	slots int // total cache slots across levels

	mode   steadyMode
	unit   int
	delta  int64
	planes int
	level  int
	t0     int
	// pinsOK gates the O(slots) pins, which per-tile phases cannot
	// amortize.
	pinsOK bool
	// unwrapped marks a phase the coverage rule refused while
	// checkCoverage runs it through detection and pins anyway.
	unwrapped bool

	diag SteadyDiag

	started  bool
	baseline []Stats

	curAcc   int64
	nAnchors int

	// The reusable buffers: detection scratch and the free record
	// buffers (bufs.go).
	steadyBufs

	period       int
	confirmUnit  int
	commitTarget int
	commits      int
	verified     int
	cursor       int
	cycleStats   []Stats

	// dl is the delta layer (delta.go): it records the phases of the
	// warm-up sweep and serves measured sweeps from those records.
	dl deltaState

	cycles uint64
}

// maxUnitRuns bounds the recorded pattern of a single unit; a phase
// whose units exceed it (or a stream that never emits markers) falls
// back to live replay rather than buffering without bound. The largest
// real unit is a tiled RESID tile-row at N=400 (about 1.2M runs), well
// under the cap.
const maxUnitRuns = 4 << 20

// maxSteadyAnchors bounds the distinct unit patterns one phase keeps for
// detection. A translating phase has a handful (its boundary shapes); a
// phase with more stops detection and replays live rather than keep a
// copy of every unit.
const maxSteadyAnchors = 1024

// maxPeriod caps the detectable cycle period (in phase units); it also
// bounds the pattern-ring memory. Periods are multiples of the alignment
// factor t0, so a phase whose t0 exceeds maxPeriod falls back to full
// replay.
const maxPeriod = 8

// NewSteady wraps a hierarchy in the steady-state engine. Feeding the
// returned sink produces statistics and final state bit-identical to
// feeding the hierarchy directly.
func NewSteady(h *Hierarchy) *Steady {
	s := &Steady{h: h}
	for _, c := range h.levels {
		s.slots += len(c.tags)
	}
	s.baseline = make([]Stats, len(h.levels))
	s.cycleStats = make([]Stats, len(h.levels))
	return s
}

// SteadyDiag classifies how the engine handled the phases it saw:
// confirmed plane cycles and refusals by cause. Refusal counters are
// per phase.
type SteadyDiag struct {
	Phases    uint64 // phases reaching the first marker
	Confirmed uint64 // plane cycles confirmed
	// ScopedConfirms, Echoes and SweepEchoes are always zero: the engine
	// has no footprint-scoped confirms, cross-phase echoes or whole-sweep
	// echoes. They are kept so existing readers of the counters keep
	// compiling.
	ScopedConfirms uint64
	Echoes         uint64
	SweepEchoes    uint64
	RefusedDelta   uint64 // no uniform translation (Δ=0/mixed) or <2 units
	RefusedCover   uint64 // cannot wrap some level before it ends (wrapsEveryLevel)
	RefusedBudget  uint64 // unit work too small to amortize detection
	RefusedT0      uint64 // alignment factor t0 exceeds the period cap (8)
	RefusedShort   uint64 // too few units for the alignment factor
	// Skipped counts the phase units committed by cycle extrapolation
	// instead of simulated. String leaves it out.
	Skipped uint64
}

// String renders the counters compactly for -v diagnostics.
func (d SteadyDiag) String() string {
	return fmt.Sprintf("phases=%d confirmed=%d refused[delta=%d cover=%d budget=%d t0=%d short=%d]",
		d.Phases, d.Confirmed,
		d.RefusedDelta, d.RefusedCover, d.RefusedBudget, d.RefusedT0, d.RefusedShort)
}

// Diag returns the phase-handling counters.
func (s *Steady) Diag() SteadyDiag {
	d := s.diag
	d.Confirmed = s.cycles
	return d
}

// ReplayRuns feeds one batch through the engine.
func (s *Steady) ReplayRuns(runs []Run) {
	if s.mode == steadyIdle {
		s.beginPhase()
	}
	switch s.mode {
	case steadyObserve:
		s.ensureBaseline()
		s.replay(runs)
		n := len(s.curPat) + len(runs)
		if n > maxUnitRuns {
			// Too long to pattern-match: the rest of the phase replays
			// live, unrecorded, since this may be its first unit, whose
			// marker latches the shape the record is checked against.
			s.dl.cur = nil
			s.curPat = s.curPat[:0]
			s.mode = steadyLive
			return
		}
		if n > cap(s.curPat) {
			// Grow by doubling: unit patterns reach hundreds of
			// thousands of runs, where the runtime's shallow growth
			// curve would copy the buffer several times over.
			nc := 2 * cap(s.curPat)
			if nc < n {
				nc = n
			}
			if nc < 4096 {
				nc = 4096
			}
			np := make([]Run, len(s.curPat), nc)
			copy(np, s.curPat)
			s.curPat = np
		}
		s.curPat = append(s.curPat, runs...)
		for _, r := range runs {
			if r.Count > 0 {
				s.curAcc += int64(r.Count)
			}
		}
	case steadySkip:
		s.verifyBatch(runs)
	case steadyLive, steadyHunt:
		s.replay(runs)
	}
	// steadyDrain: the phase is committed; its remaining runs are in the
	// record.
}

// PlaneMark processes a phase marker. Every skip commits at its own
// phase's last marker, so between phases the wrapped levels'
// statistics and state are always up to date.
func (s *Steady) PlaneMark(mk PlaneMark) {
	if s.mode == steadyIdle {
		// A unit can be empty (no batches before its marker); start the
		// phase so indices stay aligned.
		s.beginPhase()
	}
	switch s.mode {
	case steadyObserve:
		s.observeMark(mk)
	case steadySkip:
		s.skipMark(mk)
	case steadyLive:
		s.liveMark(mk)
	case steadyHunt:
		s.huntMark(mk)
	case steadyDrain:
		s.drainMark(mk)
	}
}

// SkipRest reports that the current phase is committed from its record,
// so an emitter may skip to its closing marker (PhaseSkipper).
func (s *Steady) SkipRest() bool { return s.mode == steadyDrain }

func (s *Steady) replay(runs []Run) {
	s.h.ReplayRuns(runs)
}

func (s *Steady) beginPhase() {
	if s.dl.measuring && s.enterRecord() {
		return
	}
	s.mode = steadyObserve
	s.unit = 0
	s.started = false
	s.curPat = s.curPat[:0]
	s.curAcc = 0
	s.nAnchors = 0
	s.commits = 0
	s.verified = 0
	s.cursor = 0
	s.pinsOK = true
	s.unwrapped = false
	s.beginRecord()
}

func (s *Steady) ensureBaseline() {
	if s.started {
		return
	}
	for i, c := range s.h.levels {
		s.baseline[i] = c.stats
	}
	s.started = true
}

// regular reports whether a marker continues the current phase: the
// next unit, of the latched shape.
func (s *Steady) regular(mk PlaneMark) bool {
	return mk.Index == s.unit && s.sameShape(mk)
}

func (s *Steady) sameShape(mk PlaneMark) bool {
	return mk.Delta == s.delta && mk.Planes == s.planes && mk.Level == s.level
}

// toLive ends detection at a marker boundary and closes the unit as a
// live one.
func (s *Steady) toLive(mk PlaneMark) {
	s.curPat = s.curPat[:0]
	s.mode = steadyLive
	s.liveMark(mk)
}

// liveMark closes a unit replayed without detection. A phase still being
// recorded keeps its marker check and its pins.
func (s *Steady) liveMark(mk PlaneMark) {
	if s.dl.cur != nil {
		if s.regular(mk) {
			s.capturePin()
		} else {
			s.dl.cur = nil
		}
	}
	if mk.Index >= mk.Planes-1 {
		s.endPhase()
		return
	}
	s.unit++
}

func (s *Steady) observeMark(mk PlaneMark) {
	if s.unit == 0 {
		s.delta, s.planes, s.level = mk.Delta, mk.Planes, mk.Level
		if mk.Index != 0 || !s.phaseViable() {
			s.toLive(mk)
			return
		}
	} else if !s.regular(mk) {
		s.toLive(mk)
		return
	}
	if !s.finishUnit() {
		s.toLive(mk)
		return
	}
	s.capturePin()
	if s.unit%s.t0 == 0 {
		s.takeSnapshot()
		if T, ok := s.findCycle(); ok {
			s.confirmCycle(T)
		}
	}
	if mk.Index >= s.planes-1 {
		s.endPhase()
		return
	}
	s.unit++
	s.started = false
	if s.mode == steadyObserve {
		s.curPat = s.curPat[:0]
		s.curAcc = 0
	}
}

// phaseViable decides, at the first marker, whether plane-cycle
// detection is worth attempting for this phase — it needs a uniform
// translation, a footprint that wraps every level, the translation
// alignment t0 to fit and enough planes and work to amortize it —
// counting the cause when it is not, and whether the phase's record
// pins.
func (s *Steady) phaseViable() bool {
	s.diag.Phases++
	// Pins cost O(slots) each; a phase whose total work cannot amortize
	// that (per-tile phases against a large L2) skips them, and its
	// measured sweeps lean on end-state chaining alone.
	s.pinsOK = s.curAcc*int64(s.planes) >= int64(s.slots)*16
	if s.delta <= 0 || s.planes < 2 {
		// No uniform translation (mismatched strides,
		// restriction/prolongation, fills) or a single unit.
		s.diag.RefusedDelta++
		s.pinsOK = s.pinsOK && s.planes >= 3
		return false
	}
	if !s.wrapsEveryLevel() {
		// Neither a cycle nor a pin can repeat: no detection, no pins.
		// The record keeps its end state, so chaining crosses the phase.
		s.diag.RefusedCover++
		if !checkCoverage.Load() {
			s.pinsOK = false
			return false
		}
		s.unwrapped, s.pinsOK = true, true
	} else if s.curAcc < int64(s.slots)*2 {
		// One unit's work must dwarf one snapshot's cost. The comparison
		// is per unit because the cost is per unit: detection snapshots
		// every unit it observes, so a phase of many small units (a
		// tile's k-sweep against a large L2) would pay the snapshot tax
		// planes times over while confirming too late to earn it back.
		s.diag.RefusedBudget++
		// Budget-refused phases pin regardless: they wrap every level,
		// and replaying the whole phase is what is at stake in a
		// measured sweep.
		s.pinsOK = true
		return false
	}
	s.t0 = 1
	for _, c := range s.h.levels {
		lb := int64(c.cfg.LineBytes)
		f := int(lb / gcd64(s.delta, lb))
		if f > s.t0 {
			s.t0 = f
		}
	}
	if s.t0 > maxPeriod {
		s.diag.RefusedT0++
		return false
	}
	if s.planes < 2*s.t0+2 {
		s.diag.RefusedShort++
		return false
	}
	if len(s.ring) == 0 {
		s.ring = make([]steadyPat, maxPeriod+1)
		s.snaps = make([]steadySnap, maxPeriod+1)
	}
	return true
}

// checkCoverage, set only by tests, runs every phase the coverage rule
// refuses through detection and pins anyway, counting in
// coverageBreaches each cycle confirmed and pin matched in one.
var (
	checkCoverage    atomic.Bool
	coverageBreaches atomic.Int64
)

// wrapsEveryLevel is the coverage rule, evaluated at a phase's first
// marker in O(runs of unit 0). It reports false when the phase cannot
// wrap some level before it ends: when R, the lines from the lowest
// address of unit 0's runs to the highest plus (planes-1)·Δ, is at
// most the level's set count. R is widened by a line at each end (a
// unit may run one element past its translate, as red-black's parity
// does) and by one more on top of a prefetching level. The rule takes
// R to hold every line the phase brings into the level: later units
// are translates of unit 0 or their clamped boundary subsets.
//
// Why such a phase, where it brings lines into the level, can neither
// confirm a cycle nor match a pin. Lines
// of R fall in distinct sets, and a level installs only lines the
// phase accesses (levels do not pass writebacks down), so within the
// phase
//
//	(a) a line of R, once resident, is never evicted: the only line
//	    its set installs is itself;
//	(b) a set no line of R maps to keeps its entry content.
//
// A confirmed cycle needs S_q = S_p + d at every level, for snapshot
// units p < q and d = (q-p)Δ/lineBytes ≥ 1 lines: each resident line
// translated by d, invalid slots to invalid slots. Then the top line
// of S_p plus d is resident at q, so by (a) and (b) it is a line of R
// brought in after p; and the bottom line of S_p is gone at q, so by
// (a) it is no line of R but one an earlier phase left.
//   - Entered cold (a warm-up's first phase), the level holds only
//     lines of R, so S_p ⊆ S_q by (a), and equal counts make
//     S_p = S_q = S_p + d, which only an empty level satisfies; the
//     phase left a line there.
//   - Entered warm (a §4.6 operator after another, a tiled sweep's
//     later phases, any phase of a later sweep), the phase must
//     displace the earlier phases' lines bottom first, one translate
//     per period, while every line above them is its own: a window
//     sliding up with the phase, which lines of other arrays, placed
//     by their own strides, form only by coincidence.
//
// A pin of unit u ≤ planes-2 matches only if the measured sweep's
// state at u equals the warm-up's. Let h be the top line of R, which
// only the last unit accesses and which, like unit 0's lines, the
// warm-up brought in; by (a) and (b) the set of h holds at u, in both
// sweeps, what it held when the phase began. The warm-up found
// something other than h there and left h, which nothing later in the
// phase displaces. So a pin matches only if the measured sweep's
// earlier phases put back, in the set of h and in every other set the
// phase has not reached by u, exactly what the warm-up found there.
// Entered cold in the warm-up, the set of h was empty then and cannot
// be empty again, so a sweep's first phase never matches a pin.
//
// A phase that brings nothing into the level (red-black's second pass,
// which finds the first pass's lines in the L2) is refused as well,
// though its pins could match where a level it wraps lands on the
// warm-up's state. Chaining stands in for them: the phase's record
// keeps its end state, a measured sweep that reaches the phase chained
// commits it whole, and one that simulates it in full chains again
// where it lands on that state, which deltaEndStateEq compares on
// set-associative levels in LRU order.
//
// The warm-entry cases are thus a property of the workload, and
// checkCoverage tests them: every phase the rule refuses in the
// engine-count record runs through detection and pins there, and none
// confirms or matches.
func (s *Steady) wrapsEveryLevel() bool {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, r := range s.curPat {
		if r.Count <= 0 {
			continue
		}
		a, b := r.Base, r.Base+int64(r.Count-1)*r.Stride
		if b < a {
			a, b = b, a
		}
		lo, hi = min(lo, a), max(hi, b)
	}
	if lo > hi {
		return true
	}
	hi += int64(s.planes-1) * s.delta
	for _, c := range s.h.levels {
		span := hi>>c.lineShift - lo>>c.lineShift + 3
		if c.cfg.NextLinePrefetch {
			span++
		}
		if span <= int64(c.sets) {
			return false
		}
	}
	return true
}

// finishUnit archives the completed unit in the ring: the anchor its
// pattern is a translate of (creating a new anchor when it matches
// none) and its per-level stats delta. It reports false when the phase
// has more distinct unit shapes than detection keeps.
func (s *Steady) finishUnit() bool {
	s.ensureBaseline()
	a := s.matchAnchor()
	if a < 0 {
		if s.nAnchors == maxSteadyAnchors {
			return false
		}
		if s.nAnchors == len(s.anchors) {
			s.anchors = append(s.anchors, steadyAnchor{})
		}
		a = s.nAnchors
		s.nAnchors++
		s.anchors[a].unit = s.unit
		s.anchors[a].runs = append(s.anchors[a].runs[:0], s.curPat...)
	}
	e := &s.ring[s.unit%len(s.ring)]
	e.unit = s.unit
	e.anchor = a
	if len(e.delta) != len(s.h.levels) {
		e.delta = make([]Stats, len(s.h.levels))
	}
	for i, c := range s.h.levels {
		e.delta[i] = subStats(c.stats, s.baseline[i])
	}
	return true
}

// matchAnchor returns the index of the anchor the current unit's
// pattern is a translate of, or -1. Most-recent-first: steady phases
// match their latest anchor immediately.
func (s *Steady) matchAnchor() int {
	for a := s.nAnchors - 1; a >= 0; a-- {
		off := int64(s.unit-s.anchors[a].unit) * s.delta
		if patternEq(s.curPat, s.anchors[a].runs, off) {
			return a
		}
	}
	return -1
}

func (s *Steady) ringAt(unit int) *steadyPat {
	e := &s.ring[unit%len(s.ring)]
	if e.unit != unit || e.delta == nil {
		return nil
	}
	return e
}

func (s *Steady) snapAt(unit int) *steadySnap {
	sn := &s.snaps[(unit/s.t0)%len(s.snaps)]
	if sn.unit != unit || sn.data == nil {
		return nil
	}
	return sn
}

// takeSnapshot captures the normalized post-unit state of every level.
func (s *Steady) takeSnapshot() {
	sn := &s.snaps[(s.unit/s.t0)%len(s.snaps)]
	sn.unit = s.unit
	if len(sn.data) != len(s.h.levels) {
		sn.data = make([][]int64, len(s.h.levels))
		sn.cum = make([]Stats, len(s.h.levels))
	}
	h := uint64(14695981039346656037)
	for li, c := range s.h.levels {
		dLine := (int64(s.unit) * s.delta) >> c.lineShift
		if cap(sn.data[li]) < len(c.tags) {
			sn.data[li] = make([]int64, len(c.tags))
		}
		sn.data[li] = sn.data[li][:len(c.tags)]
		h = s.encodeLevel(c, dLine, sn.data[li], h)
		sn.cum[li] = c.stats
	}
	sn.hash = h
}

// encodeLevel writes c's state into data normalized by a translation of
// dLine lines (sets rotate, tags shift; dLine 0 encodes the raw state)
// and folds every word into the running FNV hash h.
func (s *Steady) encodeLevel(c *Cache, dLine int64, data []int64, h uint64) uint64 {
	const prime = 1099511628211
	rot := int(dLine % int64(c.sets))
	if c.assoc == 1 {
		for set := 0; set < c.sets; set++ {
			src := set + rot
			if src >= c.sets {
				src -= c.sets
			}
			e := int64(steadyInvalidEnc)
			if t := c.tags[src]; t != -1 {
				e = (t - dLine) << 1
				if c.dirty[src] {
					e |= 1
				}
			}
			data[set] = e
			h = (h ^ uint64(e)) * prime
		}
		return h
	}
	if cap(s.wayStamp) < c.assoc {
		s.wayStamp = make([]uint64, c.assoc)
	}
	s.wayStamp = s.wayStamp[:c.assoc]
	for set := 0; set < c.sets; set++ {
		src := set + rot
		if src >= c.sets {
			src -= c.sets
		}
		base := src * c.assoc
		out := data[set*c.assoc : (set+1)*c.assoc]
		n := 0
		// Insertion-sort the valid ways by recency (stamp descending) so
		// LRU order, not stamp values, is what gets compared.
		for w := 0; w < c.assoc; w++ {
			if c.tags[base+w] == -1 {
				continue
			}
			st := c.stamp[base+w]
			e := (c.tags[base+w] - dLine) << 1
			if c.dirty[base+w] {
				e |= 1
			}
			p := n
			for p > 0 && s.wayStamp[p-1] < st {
				s.wayStamp[p] = s.wayStamp[p-1]
				out[p] = out[p-1]
				p--
			}
			s.wayStamp[p] = st
			out[p] = e
			n++
		}
		for ; n < c.assoc; n++ {
			out[n] = steadyInvalidEnc
		}
		for _, e := range out {
			h = (h ^ uint64(e)) * prime
		}
	}
	return h
}

func (s *Steady) findCycle() (int, bool) {
	cur := s.snapAt(s.unit)
	curPat := s.ringAt(s.unit)
	if cur == nil || curPat == nil {
		return 0, false
	}
	for T := s.t0; T <= maxPeriod && T <= s.unit; T += s.t0 {
		prev := s.snapAt(s.unit - T)
		prevPat := s.ringAt(s.unit - T)
		if prev == nil || prevPat == nil || cur.hash != prev.hash {
			continue
		}
		// Translate-equal unit patterns (anchor identity is exactly
		// that), identical per-unit stats deltas, then the full
		// normalized state comparison. The pattern check also rejects
		// false periods from alternating streams (red-black parity).
		if curPat.anchor != prevPat.anchor {
			continue
		}
		if !statsSliceEq(curPat.delta, prevPat.delta) {
			continue
		}
		if !encEq(cur.data, prev.data) {
			continue
		}
		return T, true
	}
	return 0, false
}

func (s *Steady) confirmCycle(T int) {
	remaining := s.planes - 1 - s.unit
	m := remaining / T
	if m < 1 {
		// Nothing left to skip; larger periods only shrink m, so stop
		// paying for snapshots.
		s.mode = steadyLive
		return
	}
	// The confirm unit is also the best pin for this phase: a measured
	// sweep that matches it commits everything after this point, which is
	// exactly what detection itself is about to skip.
	s.forcePin()
	cur, prev := s.snapAt(s.unit), s.snapAt(s.unit-T)
	for i := range s.h.levels {
		s.cycleStats[i] = subStats(cur.cum[i], prev.cum[i])
	}
	s.period = T
	s.confirmUnit = s.unit
	s.commitTarget = m
	s.commits = 0
	s.verified = 0
	s.cursor = 0
	s.curPat = s.curPat[:0]
	s.mode = steadySkip
	s.cycles++
	if s.unwrapped {
		coverageBreaches.Add(1)
	}
}

// skipRef returns the ring entry the given unit must repeat (one or
// more whole periods earlier).
func (s *Steady) skipRef(unit int) *steadyPat {
	d := unit - s.confirmUnit
	q := (d + s.period - 1) / s.period
	return s.ringAt(unit - q*s.period)
}

// refFor returns the recorded pattern the given unit must be a
// translate of (resolved to its anchor's runs) and the byte offset to
// apply to it.
func (s *Steady) refFor(unit int) ([]Run, int64, bool) {
	e := s.skipRef(unit)
	if e == nil {
		return nil, 0, false
	}
	a := &s.anchors[e.anchor]
	return a.runs, int64(unit-a.unit) * s.delta, true
}

func (s *Steady) verifyBatch(runs []Run) {
	ref, off, ok := s.refFor(s.unit)
	if !ok || s.cursor+len(runs) > len(ref) {
		s.flush(runs)
		return
	}
	want := ref[s.cursor : s.cursor+len(runs)]
	for i := range runs {
		x, y := runs[i], want[i]
		if x.Base != y.Base+off || x.Stride != y.Stride || x.Count != y.Count ||
			x.Store != y.Store || x.Cont != y.Cont {
			s.flush(runs)
			return
		}
	}
	s.cursor += len(runs)
}

func (s *Steady) skipMark(mk PlaneMark) {
	if !s.regular(mk) {
		s.flush(nil)
		s.liveMark(mk)
		return
	}
	if ref, _, ok := s.refFor(s.unit); !ok || s.cursor != len(ref) {
		// The unit ended short of its reference pattern.
		s.flush(nil)
	} else {
		s.cursor = 0
		s.verified++
		if s.verified%s.period == 0 {
			s.commits++
			if s.commits == s.commitTarget {
				s.applySkip(s.commits)
				s.commits = 0
				// The sub-period remainder replays; nothing more for
				// plane-cycle detection to gain.
				s.mode = steadyLive
			}
		}
	}
	if mk.Index >= s.planes-1 {
		s.endPhase()
		return
	}
	s.unit++
}

// flush abandons an in-progress skip exactly: the committed whole
// periods are applied (stats + state translation), the verified but
// uncommitted units are replayed from the ring, the current unit's
// matched prefix is replayed, then the mismatching batch (if any). The
// rest of the phase replays live.
func (s *Steady) flush(pending []Run) {
	if s.commits > 0 {
		s.applySkip(s.commits)
	}
	start := s.confirmUnit + s.commits*s.period + 1
	s.commits = 0
	for u := start; u < s.unit; u++ {
		if ref, off, ok := s.refFor(u); ok {
			s.replayShifted(ref, off)
		}
	}
	if ref, off, ok := s.refFor(s.unit); ok && s.cursor > 0 {
		s.replayShifted(ref[:s.cursor], off)
	}
	s.cursor = 0
	if len(pending) > 0 {
		s.replay(pending)
	}
	s.mode = steadyLive
}

// endPhase closes the current phase, archiving its record when one was
// kept.
func (s *Steady) endPhase() {
	s.mode = steadyIdle
	if s.dl.cur != nil {
		s.archivePhase()
	}
}

func (s *Steady) replayShifted(runs []Run, off int64) {
	if len(runs) == 0 {
		return
	}
	s.scratch = append(s.scratch[:0], runs...)
	for i := range s.scratch {
		s.scratch[i].Base += off
	}
	s.replay(s.scratch)
}

// applySkip accounts m whole skipped periods: per-level stats scale
// linearly and the state translates by the skipped distance.
func (s *Steady) applySkip(m int) {
	d := int64(m) * int64(s.period) * s.delta
	for i, c := range s.h.levels {
		cs := s.cycleStats[i]
		mm := uint64(m)
		c.stats.Loads += cs.Loads * mm
		c.stats.Stores += cs.Stores * mm
		c.stats.LoadMisses += cs.LoadMisses * mm
		c.stats.StoreMisses += cs.StoreMisses * mm
		c.stats.Writebacks += cs.Writebacks * mm
		c.stats.Prefetches += cs.Prefetches * mm
		s.translateCache(c, d)
	}
	s.diag.Skipped += uint64(m * s.period)
}

// translateCache shifts every resident line by d bytes: tags advance by
// d/lineBytes and sets rotate accordingly. d is a multiple of the line
// size by construction (periods are multiples of the alignment factor).
func (s *Steady) translateCache(c *Cache, d int64) {
	dLine := d >> c.lineShift
	rot := int(dLine % int64(c.sets))
	n := len(c.tags)
	if cap(s.scratchTags) < n {
		s.scratchTags = make([]int64, n)
		s.scratchDirty = make([]bool, n)
		s.scratchStamp = make([]uint64, n)
	}
	tg, dd, st := s.scratchTags[:n], s.scratchDirty[:n], s.scratchStamp[:n]
	for set := 0; set < c.sets; set++ {
		dst := set + rot
		if dst >= c.sets {
			dst -= c.sets
		}
		for w := 0; w < c.assoc; w++ {
			si, di := set*c.assoc+w, dst*c.assoc+w
			t := c.tags[si]
			if t != -1 {
				t += dLine
			}
			tg[di] = t
			dd[di] = c.dirty[si]
			if c.stamp != nil {
				st[di] = c.stamp[si]
			}
		}
	}
	copy(c.tags, tg)
	copy(c.dirty, dd)
	if c.stamp != nil {
		copy(c.stamp, st)
	}
}

// isPinUnit selects the unit boundaries worth pinning: the first few
// units (cold-start transients die quickly when each unit's footprint
// covers the cache) and a spread of later fractions for slow-converging
// phases.
func (s *Steady) isPinUnit(u int) bool {
	if u < 1 || u > s.planes-2 {
		return false
	}
	return u <= 4 || u == s.planes/4 || u == s.planes/3 || u == s.planes/2 || u == 3*s.planes/4
}

// capturePin pins a recorded phase at selected units. Pins are where a
// measured sweep can stop simulating a phase and commit the rest from
// the record: the earlier a pin matches, the more of the phase it skips,
// so every recorded phase pins — including plane-cycle-viable ones,
// whose pins let a measured sweep beat detection's warm-up.
func (s *Steady) capturePin() {
	if s.isPinUnit(s.unit) {
		s.forcePin()
	}
}

// forcePin pins the current unit of a recorded phase unconditionally
// (once per unit): the encoded state and, until the phase ends, the
// statistics so far.
func (s *Steady) forcePin() {
	r := s.dl.cur
	if r == nil || !s.pinsOK || s.unit > s.planes-2 || r.pinAt(s.unit) != nil {
		return
	}
	pin := steadyPin{unit: s.unit, data: make([][]int64, len(s.h.levels)), rest: make([]Stats, len(s.h.levels))}
	for li, c := range s.h.levels {
		pin.data[li] = take(&s.freeWords, len(c.tags))
		s.encodeLevel(c, 0, pin.data[li], 0)
		pin.rest[li] = c.stats
	}
	r.pins = append(r.pins, pin)
}

// encodeCurrent encodes the live state (no translation) into the
// comparison scratch buffer.
func (s *Steady) encodeCurrent() {
	if len(s.encScratch) != len(s.h.levels) {
		s.encScratch = make([][]int64, len(s.h.levels))
	}
	for li, c := range s.h.levels {
		if cap(s.encScratch[li]) < len(c.tags) {
			s.encScratch[li] = make([]int64, len(c.tags))
		}
		s.encScratch[li] = s.encScratch[li][:len(c.tags)]
		s.encodeLevel(c, 0, s.encScratch[li], 0)
	}
}

func encEq(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for li := range a {
		x, y := a[li], b[li]
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

func patternEq(a, b []Run, off int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Base != y.Base+off || x.Stride != y.Stride || x.Count != y.Count ||
			x.Store != y.Store || x.Cont != y.Cont {
			return false
		}
	}
	return true
}

func statsSliceEq(a, b []Stats) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func subStats(a, b Stats) Stats {
	return Stats{
		Loads:       a.Loads - b.Loads,
		Stores:      a.Stores - b.Stores,
		LoadMisses:  a.LoadMisses - b.LoadMisses,
		StoreMisses: a.StoreMisses - b.StoreMisses,
		Writebacks:  a.Writebacks - b.Writebacks,
		Prefetches:  a.Prefetches - b.Prefetches,
	}
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// StateEqual reports whether two caches of identical geometry hold the
// same lines with the same dirty bits and the same per-set LRU order.
// Raw LRU stamp values are not compared (the batched and steady engines
// may advance the clock differently while preserving order, which is
// all that affects behavior). It is a verification aid for the
// differential tests.
func (c *Cache) StateEqual(o *Cache) bool {
	if c.cfg != o.cfg {
		return false
	}
	if c.assoc == 1 {
		for i := range c.tags {
			if c.tags[i] != o.tags[i] || c.dirty[i] != o.dirty[i] {
				return false
			}
		}
		return true
	}
	for set := 0; set < c.sets; set++ {
		a := sortedWays(c, set)
		b := sortedWays(o, set)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// sortedWays returns a set's valid (tag, dirty) pairs most-recent first.
func sortedWays(c *Cache, set int) []struct {
	Tag   int64
	Dirty bool
} {
	base := set * c.assoc
	type entry struct {
		stamp uint64
		tag   int64
		dirty bool
	}
	var es []entry
	for w := 0; w < c.assoc; w++ {
		if c.tags[base+w] == -1 {
			continue
		}
		es = append(es, entry{c.stamp[base+w], c.tags[base+w], c.dirty[base+w]})
	}
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j-1].stamp < es[j].stamp; j-- {
			es[j-1], es[j] = es[j], es[j-1]
		}
	}
	out := make([]struct {
		Tag   int64
		Dirty bool
	}, len(es))
	for i, e := range es {
		out[i] = struct {
			Tag   int64
			Dirty bool
		}{e.tag, e.dirty}
	}
	return out
}

var (
	_ RunSink      = (*Steady)(nil)
	_ PlaneSink    = (*Steady)(nil)
	_ PhaseSkipper = (*Steady)(nil)
)

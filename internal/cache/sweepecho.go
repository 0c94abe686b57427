package cache

// Sweep-scope echo: the layer above per-phase detection that makes warm
// repeated sweeps nearly free. Per-phase machinery (cycle skip, phase
// echo) cannot amortize tiled sweeps — a tiled pass is a long sequence
// of short tile phases, each of which spends most of its units warming
// up inside the tile, and the phase-history window is far smaller than
// the number of tile phases in one pass. What does repeat exactly is
// the *whole sweep*: a warm stencil pass replays the identical batch
// stream from an identical (order-normalized) cache state.
//
// The recorder is self-synchronizing. It fingerprints the first batch
// of the phase it started recording at; when a later phase starts with
// the same batch, that is a sweep boundary: the in-progress record is
// closed (per-segment stats, raw end state) and the live state is
// compared — order-normalized, the same encoding the phase-echo pins
// use — against the start state of every stored record. On a match the
// coming sweep is an exact repeat: every batch is verified against the
// record by raw run comparison (O(runs), not O(accesses)) and at the
// final marker the recorded stats and end state are committed.
//
// A sweep that does NOT start from a recorded state can still converge
// onto one mid-flight: the canonical case is the first measured sweep
// after a cold warm-up, whose state agrees with the warm-up record once
// the pass has overwritten every cache set. Records therefore pin the
// order-normalized state at a schedule of early segment starts; while
// recording a sweep whose fingerprint matched an existing record, each
// segment start is compared against that record's pin at the same
// index, and on equality the echo enters mid-record, verifying and
// committing only the remaining segments.
//
// Any mismatch abandons the echo exactly: the verified prefix is
// replayed from the record and the engine goes live for the rest of
// the phase. Soundness is the phase-echo argument one level up: the
// entry states are order-equal, the streams are byte-equal, and cache
// behavior depends only on (tag, dirty, recency order), so stats and
// the final state replicate exactly; restoring the recorded raw end
// state is correct because only stamp *order* affects future behavior.
// Streams with a period-P sweep alternation (Jacobi's array swap)
// fingerprint each start differently, so one record naturally spans P
// sweeps. Fingerprint collisions cannot corrupt results — they only
// fragment records, and every commit is gated by a state compare plus
// full stream verification.

const (
	// sweepRecords is the number of record slots (LRU-evicted). Real
	// streams need one live record (plus one cold predecessor) per
	// distinct sweep fingerprint; period-2 alternations use two.
	sweepRecords = 4
	// sweepFPRuns bounds the fingerprint length in runs.
	sweepFPRuns = 16
	// sweepMaxSegs bounds the phases recorded per record.
	sweepMaxSegs = 1 << 14
	// sweepMaxAnchors bounds distinct unit shapes per record. Anchors
	// are deduplicated by translation across the whole record, so tiled
	// sweeps stay at a handful no matter how many tiles they visit.
	sweepMaxAnchors = 64
	// sweepMaxRecRuns bounds the total anchor runs stored per record; a
	// sweep exceeding it is not recorded (the per-phase machinery still
	// applies to it).
	sweepMaxRecRuns = 2 << 20
)

// sweepPinWanted is the pin schedule: every segment start early on —
// cold/warm convergence usually lands within the first tile strip —
// then sparser, bounding pin memory at 30 full-state encodes.
func sweepPinWanted(seg int) bool {
	return seg >= 1 && (seg <= 16 || (seg <= 128 && seg%8 == 0))
}

// sweepUnit is one recorded phase unit: the anchor whose translate its
// stream is, and the translation offset.
type sweepUnit struct {
	anchor int32
	off    int64
}

// sweepSeg is one recorded phase: its marker geometry, its units, and
// the per-level stats delta it produced.
type sweepSeg struct {
	delta  int64
	planes int
	level  int
	units  []sweepUnit
	stats  []Stats
}

// sweepRec is one recorded sweep: the fingerprint that delimits it, the
// compact stream (anchors + per-unit references), the order-normalized
// state it started from, pinned states at scheduled segment starts
// (mid-sweep echo entry), and the raw state it ended in.
type sweepRec struct {
	valid    bool
	seq      uint64
	fp       []Run
	anchors  [][]Run
	segs     []sweepSeg
	units    int // total phase units across segs
	runs     int // total anchor runs stored (cap accounting)
	startEnc [][]int64
	pins     []steadyPin // unit field holds the segment index
	endTags  [][]int64
	endDirty [][]bool
	endStamp [][]uint64
}

func (r *sweepRec) pinAt(seg int) *steadyPin {
	for i := range r.pins {
		if r.pins[i].unit == seg {
			return &r.pins[i]
		}
	}
	return nil
}

// sweepState is the engine's sweep-echo layer: the recorder mirroring
// the live stream's marker structure and the verification cursor while
// echoing. It taps every batch and marker before the phase machinery
// and is entirely independent of the engine mode, except that entering
// an echo requires (and preserves) steadyIdle.
type sweepState struct {
	seq     uint64
	records []sweepRec

	inPhase   bool
	phaseUnit int
	recording bool
	recBad    bool
	// echoCand is the record the sweep being recorded is expected to
	// converge onto (its fingerprint matched at the boundary); -1 when
	// none. Segment starts compare against its pins for mid-sweep entry.
	echoCand int
	rec      sweepRec
	pat      []Run
	segBase  []Stats // live stats at the current segment's start
	// skipFP holds fingerprints of sweeps that closed as a single
	// segment: the whole sweep is one phase, so the per-phase machinery
	// (cycle skip, phase echo with its own pins) already handles its
	// repeats and a sweep record would only duplicate that work at
	// recording cost. Such fingerprints are neither recorded nor echoed.
	skipFP [][]Run
	// seenFP holds fingerprints of boundary batches seen exactly once;
	// recording starts on the second sighting (see sweepSeen).
	seenFP [][]Run

	echoing bool
	eRec    int
	eFrom   int // segment the echo entered at
	eSeg    int
	eUnit   int
	eCur    int
}

// sweepTapRuns feeds one batch to the recorder. It returns true when
// the batch was consumed as the first verified batch of a sweep echo,
// in which case the phase machinery must not see it.
func (s *Steady) sweepTapRuns(runs []Run) bool {
	if s.DisableSweepEcho {
		return false
	}
	sw := &s.sw
	if !sw.inPhase {
		if s.mode == steadyIdle && len(runs) > 0 && s.sweepBoundary(runs) {
			return true
		}
		if s.sweepPhaseStart() {
			s.sweepEchoRuns(runs)
			return true
		}
	}
	if sw.recording && !sw.recBad {
		if s.mode == steadySkip || s.mode == steadyEcho {
			// The phase machinery just took this phase over (cycle skip
			// or phase echo): the stream's repeats are already handled a
			// level below, so a sweep record would duplicate that work at
			// recording cost. Abandon the record and blacklist the
			// fingerprint so future sweeps of this stream skip the
			// recorder entirely.
			s.sweepSubsume()
			return false
		}
		if len(sw.pat)+len(runs) > maxUnitRuns {
			sw.recBad = true
			sw.pat = sw.pat[:0]
		} else {
			sw.pat = append(sw.pat, runs...)
		}
	}
	return false
}

// sweepSubsume abandons the in-progress record because the per-phase
// machinery is handling the stream, and blacklists its fingerprint.
func (s *Steady) sweepSubsume() {
	sw := &s.sw
	sw.recBad = true
	sw.pat = sw.pat[:0]
	if len(sw.rec.fp) == 0 || len(sw.skipFP) >= 2*sweepRecords {
		return
	}
	for _, fp := range sw.skipFP {
		if patternEq(fp, sw.rec.fp, 0) {
			return
		}
	}
	sw.skipFP = append(sw.skipFP, append([]Run(nil), sw.rec.fp...))
}

// sweepTapMark feeds one marker to the recorder: it closes the current
// unit against the record's anchor table and tracks phase boundaries.
// It returns true when the marker was consumed by a mid-sweep echo
// entry at a phase that opened with an empty first unit.
func (s *Steady) sweepTapMark(mk PlaneMark) bool {
	if s.DisableSweepEcho {
		return false
	}
	sw := &s.sw
	if !sw.inPhase {
		// A phase can open with an empty first unit (marker before any
		// batch); there is nothing to fingerprint, so no boundary check.
		if s.sweepPhaseStart() {
			s.sweepEchoMark(mk)
			return true
		}
	}
	if sw.recording && !sw.recBad {
		seg := &sw.rec.segs[len(sw.rec.segs)-1]
		if len(seg.units) == 0 {
			seg.delta = mk.Delta
			seg.planes = mk.Planes
			seg.level = mk.Level
		}
		if mk.Index != sw.phaseUnit || mk.Delta != seg.delta ||
			mk.Planes != seg.planes || mk.Level != seg.level || mk.Planes < 1 {
			sw.recBad = true
		} else {
			s.sweepCloseUnit(seg)
		}
	}
	sw.pat = sw.pat[:0]
	if mk.Index >= mk.Planes-1 {
		sw.inPhase = false
	} else {
		sw.phaseUnit = mk.Index + 1
	}
	return false
}

// sweepTapMarkDone runs after the phase machinery has fully processed
// a marker (skip and phase-echo commits land there). If that marker
// ended a phase, the segment's stats delta is finalized now — not at
// the next phase start, because the caller may ResetStats between
// phases (the warm-up/measured split does) and a delta spanning that
// gap would be garbage. Stats only change inside batches and marker
// commits, so the value here equals the value at the next phase start.
func (s *Steady) sweepTapMarkDone() {
	sw := &s.sw
	if !sw.inPhase && sw.recording && !sw.recBad {
		s.sweepSegClose()
	}
}

// sweepPhaseStart tracks a phase boundary in the recorder. While
// recording with a convergence candidate, it also runs the mid-sweep
// entry check: live state equal to the candidate's pin at this segment
// index means the rest of the sweep is an exact repeat. It returns true
// when an echo was entered (the caller routes the pending input to it).
func (s *Steady) sweepPhaseStart() bool {
	sw := &s.sw
	sw.inPhase = true
	sw.phaseUnit = 0
	if !sw.recording {
		return false
	}
	segIdx := len(sw.rec.segs)
	encoded := false
	if sw.echoCand >= 0 && segIdx > 0 && s.mode == steadyIdle {
		cand := &sw.records[sw.echoCand]
		if cand.valid && segIdx < len(cand.segs) {
			if pin := cand.pinAt(segIdx); pin != nil {
				s.encodeCurrent()
				encoded = true
				if encEq(s.encScratch, pin.data) {
					ci := sw.echoCand
					sw.recording = false
					s.sweepEchoStartAt(ci, segIdx)
					return true
				}
			}
		}
	}
	if sw.recBad {
		return false
	}
	if segIdx >= sweepMaxSegs {
		sw.recBad = true
		return false
	}
	for li, c := range s.levels {
		sw.segBase[li] = c.stats
	}
	if sweepPinWanted(segIdx) {
		if !encoded {
			s.encodeCurrent()
		}
		s.sweepCapturePin(segIdx)
	}
	sw.rec.segs = append(sw.rec.segs, sweepSeg{})
	return false
}

// sweepSegClose finalizes the current segment's per-level stats delta.
func (s *Steady) sweepSegClose() {
	sw := &s.sw
	if n := len(sw.rec.segs); n > 0 {
		seg := &sw.rec.segs[n-1]
		seg.stats = seg.stats[:0]
		for li, c := range s.levels {
			seg.stats = append(seg.stats, subStats(c.stats, sw.segBase[li]))
		}
	}
}

// sweepCapturePin stores the already-encoded live state as the pin for
// the segment about to start, recycling the evicted slot's buffers.
func (s *Steady) sweepCapturePin(segIdx int) {
	rec := &s.sw.rec
	np := len(rec.pins)
	if np < cap(rec.pins) {
		rec.pins = rec.pins[:np+1]
	} else {
		rec.pins = append(rec.pins, steadyPin{})
	}
	p := &rec.pins[np]
	p.unit = segIdx
	if p.data == nil {
		p.data = make([][]int64, len(s.levels))
	}
	for li := range s.levels {
		p.data[li] = append(p.data[li][:0], s.encScratch[li]...)
	}
}

// sweepCloseUnit matches the accumulated unit pattern against the
// record's anchors (deduplicated by translation) or adds a new anchor.
func (s *Steady) sweepCloseUnit(seg *sweepSeg) {
	sw := &s.sw
	rec := &sw.rec
	ai, off := -1, int64(0)
	for i, a := range rec.anchors {
		if len(a) != len(sw.pat) {
			continue
		}
		var d int64
		if len(a) > 0 {
			d = sw.pat[0].Base - a[0].Base
		}
		if patternEq(sw.pat, a, d) {
			ai, off = i, d
			break
		}
	}
	if ai < 0 {
		if len(rec.anchors) >= sweepMaxAnchors || rec.runs+len(sw.pat) > sweepMaxRecRuns {
			sw.recBad = true
			return
		}
		ai = len(rec.anchors)
		rec.anchors = append(rec.anchors, append([]Run(nil), sw.pat...))
		rec.runs += len(sw.pat)
	}
	seg.units = append(seg.units, sweepUnit{anchor: int32(ai), off: off})
	rec.units++
}

// sweepBoundary handles a phase-start batch that may open a new sweep:
// it fingerprints the batch against the in-progress and stored records.
// On a match it closes the in-progress record and either enters an echo
// (consuming the batch — returns true) or starts recording the sweep.
func (s *Steady) sweepBoundary(runs []Run) bool {
	sw := &s.sw
	match := func(fp []Run) bool {
		return len(fp) > 0 && len(fp) <= len(runs) && patternEq(runs[:len(fp)], fp, 0)
	}
	for _, fp := range sw.skipFP {
		if match(fp) {
			// A single-phase sweep: the phase machinery owns it. Close
			// any in-progress record (it will also land in skipFP) and
			// stay out of the way.
			s.sweepRecordClose()
			return false
		}
	}
	hit := sw.recording && match(sw.rec.fp)
	if !hit {
		for i := range sw.records {
			if sw.records[i].valid && match(sw.records[i].fp) {
				hit = true
				break
			}
		}
	}
	if !hit {
		if !sw.recording {
			// Stream start, or resynchronization after a flush. Recording
			// is deferred until the same boundary batch shows up a second
			// time: the first occurrence only notes the fingerprint, so a
			// stream that never repeats (or whose repeats the phase
			// machinery already handles before a second boundary) costs
			// the recorder nothing but a fingerprint scan per sweep.
			if s.sweepSeen(runs) {
				s.sweepRecordStart(runs)
			}
		}
		return false
	}
	s.sweepRecordClose()
	for _, fp := range sw.skipFP {
		if match(fp) {
			return false // the close just classified this fp single-phase
		}
	}
	s.encodeCurrent()
	for i := range sw.records {
		r := &sw.records[i]
		if r.valid && encEq(s.encScratch, r.startEnc) {
			s.sweepEchoStartAt(i, 0)
			s.sweepEchoRuns(runs)
			return true
		}
	}
	s.sweepRecordStart(runs)
	return false
}

// sweepSeen reports whether a boundary batch's fingerprint was noted
// before, noting it when not. The list is a small FIFO: a stream cycles
// through few distinct sweep shapes, so evicting the oldest is safe.
func (s *Steady) sweepSeen(runs []Run) bool {
	sw := &s.sw
	n := len(runs)
	if n > sweepFPRuns {
		n = sweepFPRuns
	}
	for _, fp := range sw.seenFP {
		if len(fp) == n && patternEq(runs[:n], fp, 0) {
			return true
		}
	}
	fp := append([]Run(nil), runs[:n]...)
	if len(sw.seenFP) >= 2*sweepRecords {
		copy(sw.seenFP, sw.seenFP[1:])
		sw.seenFP[len(sw.seenFP)-1] = fp
	} else {
		sw.seenFP = append(sw.seenFP, fp)
	}
	return false
}

// sweepRecordStart begins recording a sweep whose first batch is runs:
// the record captures the live stats and the order-normalized state,
// and remembers which stored record this sweep may converge onto.
func (s *Steady) sweepRecordStart(runs []Run) {
	sw := &s.sw
	if sw.records == nil {
		sw.records = make([]sweepRec, sweepRecords)
	}
	sw.recording = true
	sw.recBad = false
	n := len(runs)
	if n > sweepFPRuns {
		n = sweepFPRuns
	}
	rec := &sw.rec
	rec.valid = false
	rec.fp = append(rec.fp[:0], runs[:n]...)
	rec.anchors = rec.anchors[:0]
	rec.segs = rec.segs[:0]
	rec.pins = rec.pins[:0]
	rec.units = 0
	rec.runs = 0
	s.encodeCurrent()
	if rec.startEnc == nil {
		rec.startEnc = make([][]int64, len(s.levels))
	}
	for li := range s.levels {
		rec.startEnc[li] = append(rec.startEnc[li][:0], s.encScratch[li]...)
	}
	if sw.segBase == nil {
		sw.segBase = make([]Stats, len(s.levels))
	}
	for li, c := range s.levels {
		sw.segBase[li] = c.stats
	}
	sw.echoCand = -1
	for i := range sw.records {
		if sw.records[i].valid && len(sw.records[i].fp) == len(rec.fp) &&
			patternEq(sw.records[i].fp, rec.fp, 0) {
			sw.echoCand = i
			break
		}
	}
}

// sweepRecordClose finalizes the in-progress record at a sweep
// boundary. The engine is idle here, so the live stats and state are
// fully settled regardless of how its phases were handled (replayed,
// skipped, or echoed — all produce identical stats and state).
func (s *Steady) sweepRecordClose() {
	sw := &s.sw
	if !sw.recording {
		return
	}
	sw.recording = false
	rec := &sw.rec
	if sw.recBad || rec.units == 0 {
		return
	}
	if len(rec.segs) <= 1 {
		// The whole sweep was one phase: its repeats are exactly what
		// the per-phase machinery (cycle skip, phase echo) handles, so
		// a sweep record adds nothing. Remember the fingerprint so this
		// stream stops paying recording cost altogether.
		if len(sw.skipFP) < 2*sweepRecords {
			sw.skipFP = append(sw.skipFP, append([]Run(nil), rec.fp...))
		}
		return
	}
	if rec.endTags == nil {
		rec.endTags = make([][]int64, len(s.levels))
		rec.endDirty = make([][]bool, len(s.levels))
		rec.endStamp = make([][]uint64, len(s.levels))
	}
	for li, c := range s.levels {
		rec.endTags[li] = append(rec.endTags[li][:0], c.tags...)
		rec.endDirty[li] = append(rec.endDirty[li][:0], c.dirty...)
		rec.endStamp[li] = rec.endStamp[li][:0]
		if c.stamp != nil {
			rec.endStamp[li] = append(rec.endStamp[li], c.stamp...)
		}
	}
	rec.valid = true
	sw.seq++
	rec.seq = sw.seq
	v := -1
	for i := range sw.records {
		r := &sw.records[i]
		if r.valid && len(r.fp) == len(rec.fp) && patternEq(r.fp, rec.fp, 0) {
			v = i // same fingerprint: the newer record supersedes it
			break
		}
	}
	if v < 0 {
		for i := range sw.records {
			if !sw.records[i].valid {
				v = i
				break
			}
		}
	}
	if v < 0 {
		v = 0
		for i := 1; i < len(sw.records); i++ {
			if sw.records[i].seq < sw.records[v].seq {
				v = i
			}
		}
	}
	// Swap so the evicted slot's buffers are recycled by the next record.
	sw.records[v], *rec = *rec, sw.records[v]
	rec.valid = false
}

// sweepEchoStartAt enters echo mode against record i from segment seg
// (0 for a boundary entry, the convergence segment for a mid-sweep
// entry). The engine mode is steadyIdle (both entry paths require it)
// and stays idle throughout: the phase machinery sees none of the
// echoed segments.
func (s *Steady) sweepEchoStartAt(i, seg int) {
	sw := &s.sw
	if s.dl.tracing {
		// The phase machinery sees none of an echoed sweep's phases, so a
		// delta trace spanning one is incomplete: DeltaTraceEnd refuses it
		// and the measured sweeps are walked.
		s.dl.ok = false
	}
	sw.echoing = true
	sw.eRec = i
	sw.eFrom = seg
	sw.eSeg, sw.eUnit, sw.eCur = seg, 0, 0
	sw.seq++
	sw.records[i].seq = sw.seq
}

func (s *Steady) sweepEchoRef() ([]Run, int64) {
	sw := &s.sw
	seg := &sw.records[sw.eRec].segs[sw.eSeg]
	u := seg.units[sw.eUnit]
	return sw.records[sw.eRec].anchors[u.anchor], u.off
}

func (s *Steady) sweepEchoRuns(runs []Run) {
	sw := &s.sw
	ref, off := s.sweepEchoRef()
	if sw.eCur+len(runs) > len(ref) {
		s.sweepEchoFlush(runs)
		return
	}
	want := ref[sw.eCur : sw.eCur+len(runs)]
	for i := range runs {
		x, y := runs[i], want[i]
		if x.Base != y.Base+off || x.Stride != y.Stride || x.Count != y.Count ||
			x.Store != y.Store || x.Cont != y.Cont {
			s.sweepEchoFlush(runs)
			return
		}
	}
	sw.eCur += len(runs)
}

func (s *Steady) sweepEchoMark(mk PlaneMark) {
	sw := &s.sw
	seg := &sw.records[sw.eRec].segs[sw.eSeg]
	bad := mk.Index != sw.eUnit || mk.Delta != seg.delta || mk.Planes != seg.planes || mk.Level != seg.level
	if !bad {
		ref, _ := s.sweepEchoRef()
		bad = sw.eCur != len(ref)
	}
	if bad {
		s.sweepEchoFlush(nil)
		s.sweepTapMark(mk)
		if mk.Index >= mk.Planes-1 {
			s.mode = steadyIdle
		}
		return
	}
	sw.eCur = 0
	if sw.eUnit >= seg.planes-1 {
		sw.eSeg++
		sw.eUnit = 0
		if sw.eSeg >= len(sw.records[sw.eRec].segs) {
			s.sweepEchoCommit()
		}
	} else {
		sw.eUnit++
	}
}

// sweepEchoCommit completes an echoed sweep: the echoed segments'
// recorded per-level stats deltas are added and the recorded raw end
// state restored (stamp values are stale but their order — all that
// affects behavior — is exactly the live run's).
func (s *Steady) sweepEchoCommit() {
	sw := &s.sw
	rec := &sw.records[sw.eRec]
	var units uint64
	for si := sw.eFrom; si < len(rec.segs); si++ {
		seg := &rec.segs[si]
		for li, c := range s.levels {
			c.stats = addStats(c.stats, seg.stats[li])
		}
		units += uint64(len(seg.units))
	}
	for li, c := range s.levels {
		copy(c.tags, rec.endTags[li])
		copy(c.dirty, rec.endDirty[li])
		if c.stamp != nil {
			copy(c.stamp, rec.endStamp[li])
		}
	}
	s.skipped += units
	s.sweepEchoes++
	sw.echoing = false
	sw.inPhase = false
	// s.mode stayed steadyIdle through the echo; the next batch runs
	// the boundary check again, chaining sweep after sweep.
}

// sweepEchoFlush abandons an in-progress sweep echo exactly: nothing
// was committed, so the verified-but-unsimulated prefix replays from
// the record (segments eFrom on, the current segment's closed units,
// and the current unit's verified runs), then the pending batch, and
// the engine goes live until the current phase ends.
func (s *Steady) sweepEchoFlush(pending []Run) {
	sw := &s.sw
	rec := &sw.records[sw.eRec]
	for si := sw.eFrom; si <= sw.eSeg && si < len(rec.segs); si++ {
		seg := &rec.segs[si]
		nu := len(seg.units)
		if si == sw.eSeg {
			nu = sw.eUnit
		}
		for u := 0; u < nu; u++ {
			ref := rec.anchors[seg.units[u].anchor]
			s.replayShifted(ref, seg.units[u].off)
		}
		if si == sw.eSeg && sw.eCur > 0 {
			u := seg.units[sw.eUnit]
			s.replayShifted(rec.anchors[u.anchor][:sw.eCur], u.off)
		}
	}
	if len(pending) > 0 {
		s.replay(pending)
	}
	sw.echoing = false
	sw.inPhase = true
	sw.recording = false
	sw.pat = sw.pat[:0]
	s.mode = steadyLive
}

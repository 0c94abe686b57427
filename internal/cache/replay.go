package cache

import "math/bits"

// Batched replay engine. ReplayRuns on *Cache and *Hierarchy consumes
// the Run stream directly on the concrete simulator state — no interface
// call per access — and simulates at cache-line granularity wherever that
// is provably exact: a unit-stride run of length L costs O(L/lineElems)
// set probes instead of L per-access calls.
//
// The engine must be indistinguishable from ExpandRuns feeding the
// per-access Load/Store path: identical counters at every level and
// identical final tag/dirty state (LRU stamps may differ numerically but
// always in a way that preserves the relative recency order within every
// set, which is all the replacement policy observes). It gets there by
// decomposing each lockstep group into pieces whose accesses provably
// commute:
//
//   - Two runs whose line footprints are set-disjoint at every level can
//     be replayed one after the other instead of interleaved: no access
//     of one can hit, evict, or reorder a line the other touches. The
//     group is partitioned into connected components under the "may share
//     a cache set" relation.
//   - A single-run component is replayed line by line: the first access
//     to each line probes and installs exactly like the per-access path;
//     the remaining accesses to that line are guaranteed hits (nothing
//     else touches the set in between) and are accounted arithmetically.
//     Write-around store misses span the whole line and forward to the
//     next level as a strided run; load and write-allocate store misses
//     forward a single access.
//   - A multi-run component whose members share one stride and fit
//     within one line (the classic {x-1, x, x+1} stencil triple) is
//     replayed as a "ladder" when the deltas permit: the member with the
//     extreme base reaches every line strictly before the others need
//     it, so after a short exact prefix the leader replays as an
//     isolated run and every trailing member's access is a guaranteed
//     L1 hit (see replayLadder for the invariant).
//   - Equal-stride runs that share sets but visit every shared set in
//     disjoint lockstep windows replay one whole run at a time in phase
//     order (see phasedOrder).
//   - Any other component falls back to an exact per-access interleaved
//     loop on the concrete caches — still devirtualized, still fed from
//     runs, but paying one probe per access (replayInterleaved).
//     Conflicting streams (the paper's pathological sizes) land here,
//     which is what keeps their ping-ponging miss counts bit-identical.
//     So do the half-stride clusters of red-black and of the multigrid
//     restriction and prolongation: same-stride members within one line
//     but less than a stride apart, so no member leads the others. The
//     inlined loop replays them faster than batching them span by span.
//
// Next-line prefetching installs lines outside a run's own footprint,
// which breaks the disjointness argument; a hierarchy with prefetching
// anywhere replays every group with the plain per-access walk
// (replayExactGroup).

// maxGroup bounds the stack-allocated scratch space; larger groups (which
// no walker emits) take a heap-allocated slow path.
const maxGroup = 32

type compKind uint8

const (
	compSingle  compKind = iota // one run: line-batched strided replay
	compLadder                  // same stride, bases within one line, strict leader: prefix + leader run + hit arithmetic
	compPhased                  // equal-stride runs with disjoint per-set visit windows: one full run at a time
	compGeneral                 // exact per-access interleaved replay
)

// replayMemo caches the conflict partitions of recently seen group
// shapes. Walkers emit a small cycle of shapes over a sweep: the bases
// shift together row after row (identical deltas and strides), but a row
// stride that is not a multiple of the coarsest line size rotates the
// group's line alignment through a handful of values, and red/black or
// boundary rows add a few more. A few ways with round-robin replacement
// make the partition — the only super-linear work per group — a near
// once-per-sweep cost even for those walkers.
//
// The key must capture everything the partition reads: the run count and
// lockstep count, the strides and pairwise base deltas, and the group's
// alignment within the coarsest cache line. Alignment matters because
// the conflict test compares line-number intervals: shifting every base
// by a non-multiple of the line size moves the runs' line-number
// differences by ±1, which can create or destroy a set conflict even
// though the byte deltas are unchanged (a tiled walker stepping its tile
// origin by half a line does exactly this).
type replayMemo struct {
	// envOK caches the geometry-derived replayEnv (and the prefetch
	// flag), which depend only on the owner's immutable configuration.
	envOK    bool
	prefetch bool
	env      replayEnv

	next int // round-robin victim
	ways [memoWays]partMemo
}

const memoWays = 16

type partMemo struct {
	valid  bool
	n      int
	count  int32
	align  int64 // Base[0] mod the coarsest line size
	stride [maxGroup]int64
	delta  [maxGroup]int64 // Base[i] - Base[0]
	ncomp  int
	order  [maxGroup]int32     // run indices grouped by component
	start  [maxGroup + 1]int32 // component c = order[start[c]:start[c+1]]
	kind   [maxGroup]compKind
}

// ReplayRuns replays a batched trace through the hierarchy. The result
// is identical to expanding the runs into per-access Load/Store calls.
func (h *Hierarchy) ReplayRuns(runs []Run) {
	replayRuns(h.levels, runs, &h.memo)
}

// ReplayRuns replays a batched trace through a single cache level,
// identically to expanding the runs into per-access calls.
func (c *Cache) ReplayRuns(runs []Run) {
	if c.self[0] != c {
		c.self[0] = c
	}
	replayRuns(c.self[:], runs, &c.memo)
}

func replayRuns(levels []*Cache, runs []Run, memo *replayMemo) {
	if len(levels) == 0 {
		return
	}
	if !memo.envOK {
		prefetch := false
		lbFine := int64(1) << levels[0].lineShift
		lbCoarse := lbFine
		ladderOK := true
		l1WA := levels[0].cfg.WriteAllocate
		for _, c := range levels {
			if c.cfg.NextLinePrefetch {
				prefetch = true
			}
			lb := int64(1) << c.lineShift
			if lb < lbFine {
				lbFine = lb
			}
			if lb > lbCoarse {
				lbCoarse = lb
			}
			if c.sets < 2 {
				// The ladder argument needs adjacent lines to map to
				// different sets so a hit can never refresh-race an install.
				ladderOK = false
			}
		}
		memo.env = replayEnv{lbFine: lbFine, lbCoarse: lbCoarse, ladderOK: ladderOK, l1WA: l1WA}
		memo.prefetch = prefetch
		memo.envOK = true
	}
	env, prefetch := &memo.env, memo.prefetch
	var allBuf [maxGroup]int32
	all := allBuf[:0] // identity member list for the prefetching walk
	for start := 0; start < len(runs); {
		end := groupEnd(runs, start)
		g := runs[start:end]
		if n := int64(g[0].Count); n > 0 {
			if prefetch {
				for len(all) < len(g) {
					all = append(all, int32(len(all)))
				}
				replayExactGroup(levels, g, all[:len(g)], n)
			} else {
				replayGroup(levels, g, n, memo, env)
			}
		}
		start = end
	}
}

// replayEnv carries the per-hierarchy facts the partition and classifiers
// depend on; it is constant for the lifetime of a replay.
type replayEnv struct {
	lbFine   int64 // smallest line size over the levels
	lbCoarse int64 // largest line size over the levels
	ladderOK bool  // every level has at least two sets
	l1WA     bool  // first level is write-allocate
}

func replayGroup(levels []*Cache, g []Run, n int64, memo *replayMemo, env *replayEnv) {
	if len(g) == 1 {
		replayRun(levels, 0, g[0].Base, g[0].Stride, n, g[0].Store)
		return
	}
	order, startIdx, kind, ncomp := memo.partition(levels, g, env)
	for c := 0; c < ncomp; c++ {
		s0 := startIdx[c]
		if kind[c] == compSingle {
			r := &g[order[s0]]
			replayRun(levels, 0, r.Base, r.Stride, n, r.Store)
			continue
		}
		members := order[s0:startIdx[c+1]]
		switch kind[c] {
		case compLadder:
			replayLadder(levels, g, members, n)
		case compPhased:
			// members is already permuted into phase order (see
			// phasedOrder); each run replays alone at full speed.
			for _, idx := range members {
				r := &g[idx]
				replayRun(levels, 0, r.Base, r.Stride, n, r.Store)
			}
		default:
			replayInterleaved(levels, g, members, n)
		}
	}
}

// replayExactGroup replays the members of a group per access in
// lockstep order through loadThrough/storeThrough: the walk for a whole
// group when prefetching invalidates every batching argument, for a
// conflicting component whose L1 replayInterleaved cannot inline, and
// for a ladder's exact prefix.
func replayExactGroup(levels []*Cache, g []Run, members []int32, n int64) {
	for i := int64(0); i < n; i++ {
		for _, mi := range members {
			r := &g[mi]
			addr := r.Base + i*r.Stride
			if r.Store {
				storeThrough(levels, addr)
			} else {
				loadThrough(levels, addr)
			}
		}
	}
}

// loadThrough and storeThrough walk an access down the hierarchy exactly
// like Hierarchy.Load/Store. The common direct-mapped power-of-two level
// is inlined (identical to Cache.Load/Store for that geometry); anything
// else — associative sets, prefetching levels — takes the method call.
func loadThrough(levels []*Cache, addr int64) {
	for _, c := range levels {
		if c.assoc == 1 && c.pow2 && !c.cfg.NextLinePrefetch {
			line := addr >> c.lineShift
			s := int(line & c.setMask)
			c.stats.Loads++
			if c.tags[s] == line {
				return
			}
			c.stats.LoadMisses++
			if c.tags[s] != -1 && c.dirty[s] {
				c.stats.Writebacks++
			}
			c.tags[s] = line
			c.dirty[s] = false
			continue
		}
		if c.Load(addr) {
			return
		}
	}
}

func storeThrough(levels []*Cache, addr int64) {
	for _, c := range levels {
		if c.assoc == 1 && c.pow2 && !c.cfg.NextLinePrefetch {
			line := addr >> c.lineShift
			s := int(line & c.setMask)
			c.stats.Stores++
			if c.tags[s] == line {
				if c.cfg.WriteAllocate {
					c.dirty[s] = true
				}
				return
			}
			c.stats.StoreMisses++
			if c.cfg.WriteAllocate {
				if c.tags[s] != -1 && c.dirty[s] {
					c.stats.Writebacks++
				}
				c.tags[s] = line
				c.dirty[s] = true
			}
			continue
		}
		if c.Store(addr) {
			return
		}
	}
}

// partition splits the group into set-disjoint components and classifies
// each, reusing the memoized answer when the group has the same shape as
// the previous one (see replayMemo for what "shape" must include).
func (m *replayMemo) partition(levels []*Cache, g []Run, env *replayEnv) (order, start []int32, kind []compKind, ncomp int) {
	n := len(g)
	if n <= maxGroup {
		base0 := g[0].Base
		align := base0 & (env.lbCoarse - 1)
	scan:
		for w := range m.ways {
			e := &m.ways[w]
			if !e.valid || e.n != n || e.count != g[0].Count || e.align != align {
				continue
			}
			for i := 0; i < n; i++ {
				if g[i].Stride != e.stride[i] || g[i].Base-base0 != e.delta[i] {
					continue scan
				}
			}
			return e.order[:n], e.start[:e.ncomp+1], e.kind[:e.ncomp], e.ncomp
		}
		e := &m.ways[m.next]
		m.next++
		if m.next == memoWays {
			m.next = 0
		}
		ncomp = computePartition(levels, g, env, e.order[:n], e.start[:n+1], e.kind[:n])
		e.valid = true
		e.n = n
		e.count = g[0].Count
		e.align = align
		e.ncomp = ncomp
		for i := 0; i < n; i++ {
			e.stride[i] = g[i].Stride
			e.delta[i] = g[i].Base - base0
		}
		return e.order[:n], e.start[:ncomp+1], e.kind[:ncomp], ncomp
	}
	order = make([]int32, n)
	start = make([]int32, n+1)
	kind = make([]compKind, n)
	ncomp = computePartition(levels, g, env, order, start, kind)
	return order, start, kind, ncomp
}

func computePartition(levels []*Cache, g []Run, env *replayEnv, order, start []int32, kind []compKind) int {
	n := len(g)
	var pbuf, lbuf [maxGroup]int32
	var parent, lab []int32
	if n <= maxGroup {
		parent, lab = pbuf[:n], lbuf[:n]
	} else {
		parent, lab = make([]int32, n), make([]int32, n)
	}
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			a, b := find(int32(i)), find(int32(j))
			if a != b && runsMayShareSet(levels, &g[i], &g[j]) {
				parent[b] = a
			}
		}
	}
	// Dense component labels in order of first appearance, so replay
	// order is deterministic.
	ncomp := 0
	for i := range lab {
		lab[i] = -1
	}
	for i := 0; i < n; i++ {
		r := find(int32(i))
		if lab[r] < 0 {
			lab[r] = int32(ncomp)
			ncomp++
		}
		if int32(i) != r {
			lab[i] = lab[r]
		}
	}
	pos := int32(0)
	for c := 0; c < ncomp; c++ {
		start[c] = pos
		for i := 0; i < n; i++ {
			if lab[find(int32(i))] == int32(c) {
				order[pos] = int32(i)
				pos++
			}
		}
	}
	start[ncomp] = pos
	for c := 0; c < ncomp; c++ {
		kind[c] = classifyComponent(levels, g, order[start[c]:start[c+1]], env)
	}
	return ncomp
}

func classifyComponent(levels []*Cache, g []Run, members []int32, env *replayEnv) compKind {
	if len(members) == 1 {
		return compSingle
	}
	s := g[members[0]].Stride
	lo, hi := g[members[0]].Base, g[members[0]].Base
	for _, mi := range members[1:] {
		r := &g[mi]
		if r.Stride != s {
			return compGeneral
		}
		if r.Base < lo {
			lo = r.Base
		}
		if r.Base > hi {
			hi = r.Base
		}
	}
	// Within one finest line, at any lockstep index the members' lines
	// differ by at most one at every level. Such a component without a
	// strict leader has pairwise gaps below a line, which phasedOrder
	// refuses, so it replays interleaved.
	if hi-lo < env.lbFine && ladderShape(g, members, s, lo, hi, env) {
		return compLadder
	}
	if phasedOrder(levels, g, members, s) {
		return compPhased
	}
	return compGeneral
}

// phaseFail marks a pair whose per-set visit windows can overlap, so no
// sequential order of the two runs reproduces the lockstep state.
const phaseFail = int8(2)

// phasedOrder reports whether the equal-stride component can be replayed
// one run at a time. The argument: cache state factorizes per set at
// every level (an access's outcome at a level depends only on the prior
// accesses reaching that level's set, and the stream a lower level
// forwards upward is a per-set-determined subsequence). Two runs
// therefore commute up to per-set order — any replay that keeps, for
// every set of every level, all of one run's visits on the same side of
// the other's reproduces the lockstep miss counts and final state
// exactly. Equal-stride runs sweep the set space at the same rate, so
// the lockstep gap between their visits to a shared set is a constant
// (per wrap image), and when every such gap clears the visit-window
// width the component decomposes into whole runs in phase order. On
// success the members slice is permuted into that order.
func phasedOrder(levels []*Cache, g []Run, members []int32, s int64) bool {
	k := len(members)
	if s == 0 || k > maxGroup {
		return false
	}
	abs := s
	if abs < 0 {
		abs = -s
	}
	span := (int64(g[members[0]].Count) - 1) * abs
	var rel [maxGroup][maxGroup]int8 // +1: row's shared-set visits precede column's
	for xi := 0; xi < k; xi++ {
		for yi := xi + 1; yi < k; yi++ {
			d := phaseDir(levels, &g[members[xi]], &g[members[yi]], abs, span)
			if d == phaseFail {
				return false
			}
			if s < 0 {
				// Descending runs visit high lines first, flipping who
				// reaches a shared set earlier.
				d = -d
			}
			rel[xi][yi] = d
			rel[yi][xi] = -d
		}
	}
	// Topological selection: emit any member no remaining member must
	// precede. A cycle (contradictory pairwise phases) fails.
	var out [maxGroup]int32
	var used [maxGroup]bool
	for pos := 0; pos < k; pos++ {
		found := -1
		for i := 0; i < k && found < 0; i++ {
			if used[i] {
				continue
			}
			ok := true
			for j := 0; j < k; j++ {
				if !used[j] && rel[j][i] > 0 {
					ok = false
					break
				}
			}
			if ok {
				found = i
			}
		}
		if found < 0 {
			return false
		}
		used[found] = true
		out[pos] = members[found]
	}
	copy(members, out[:k])
	return true
}

// phaseDir decides, for two runs of equal |stride| abs covering byte
// ranges of equal length span, whether every set they can share at any
// level is visited by x with a full window to spare before y (+1), by y
// before x (-1), or by neither (0: no shared set). Directions are in
// ascending-address terms; the caller flips for negative strides.
//
// Geometry: at a level with line size lb and wrap period M = sets*lb, x
// and y can share a set only where their address ranges land lb-close
// modulo M, i.e. for line offsets j*M with j*M in
// [delta-span-lb, delta+span+lb] (delta = low-address distance). For
// such a j the lockstep-index gap between their visits to any shared
// set is (j*M-delta)/abs — constant, because equal strides sweep sets at
// the same rate. A visit window spans at most lb-1+abs bytes of
// lockstep progress, so |j*M-delta| >= lb+2*abs keeps the windows
// disjoint (with slack for the ceil rounding of window ends).
func phaseDir(levels []*Cache, x, y *Run, abs, span int64) int8 {
	xLo, _ := x.addrRange()
	yLo, _ := y.addrRange()
	delta := yLo - xLo
	dir := int8(0)
	for _, c := range levels {
		lb := int64(1) << c.lineShift
		M := int64(c.sets) << c.lineShift
		if span+2*lb > M {
			// The run wraps the set space: it revisits sets, so no
			// single visit window exists.
			return phaseFail
		}
		minGap := lb + 2*abs
		lo, hi := delta-span-lb, delta+span+lb
		for j := -floorDiv(-lo, M); j*M <= hi; j++ {
			gap := j*M - delta
			var d int8
			switch {
			case gap >= minGap:
				d = +1
			case gap <= -minGap:
				d = -1
			default:
				return phaseFail
			}
			if dir == 0 {
				dir = d
			} else if dir != d {
				return phaseFail
			}
		}
	}
	return dir
}

// ladderShape reports whether the cluster qualifies for replayLadder:
// a unique leader (the member with the extreme base in stride direction,
// first in group order) that is a load and reaches every cache line at
// least one lockstep index before any trailing member needs it. That
// requires every trailing member to lag the leader by at least one full
// stride (or share its address exactly, in which case group order breaks
// the tie in the leader's favour), and at least two sets per level so a
// line installed by the leader survives until the whole cluster has
// passed it. Store members never install or dirty anything only when the
// first level is write-around, so a write-allocate L1 disqualifies any
// cluster containing a store.
func ladderShape(g []Run, members []int32, s, lo, hi int64, env *replayEnv) bool {
	if !env.ladderOK || s == 0 {
		return false
	}
	lead := hi
	if s < 0 {
		lead = lo
	}
	abs := s
	if abs < 0 {
		abs = -abs
	}
	leaderSeen := false
	for _, mi := range members {
		r := &g[mi]
		if r.Store && env.l1WA {
			return false
		}
		d := lead - r.Base
		if s < 0 {
			d = -d
		}
		if d == 0 {
			if !leaderSeen {
				if r.Store {
					return false // the leader must install lines
				}
				leaderSeen = true
			}
		} else if d < abs {
			return false // could first-touch a line at the leader's index
		}
	}
	return true
}

// runsMayShareSet reports whether any access of a could map to the same
// cache set as any access of b at any level. Runs for which this is false
// commute: replaying one completely and then the other is
// indistinguishable from any interleaving.
func runsMayShareSet(levels []*Cache, a, b *Run) bool {
	aLo, aHi := a.addrRange()
	bLo, bHi := b.addrRange()
	for _, c := range levels {
		// Line-number intervals touched by each run (a superset for
		// strides larger than a line, which is conservative).
		alo, ahi := aLo>>c.lineShift, aHi>>c.lineShift
		blo, bhi := bLo>>c.lineShift, bHi>>c.lineShift
		// Sets collide iff some la in [alo,ahi], lb in [blo,bhi] have
		// la ≡ lb (mod sets): iff [blo-ahi, bhi-alo] contains a multiple
		// of sets.
		sets := int64(c.sets)
		p, q := blo-ahi, bhi-alo
		if c.pow2 {
			// floor q to a multiple of sets; two's complement makes the
			// mask-clear exact for negative q too.
			if q&^(sets-1) >= p {
				return true
			}
		} else if floorDiv(q, sets)*sets >= p {
			return true
		}
	}
	return false
}

func (r *Run) addrRange() (lo, hi int64) {
	last := r.Base + int64(r.Count-1)*r.Stride
	if r.Stride < 0 {
		return last, r.Base
	}
	return r.Base, last
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// lineSpan returns how many consecutive accesses of a strided stream at
// addr stay within addr's line of size lb (a power of two), capped at
// remaining.
func lineSpan(addr, stride, lb, remaining int64) int64 {
	if stride == 0 {
		return remaining
	}
	var span int64
	if stride > 0 {
		rem := lb - (addr & (lb - 1))
		span = (rem + stride - 1) / stride
	} else {
		rem := (addr & (lb - 1)) + 1
		span = (rem - stride - 1) / -stride
	}
	if span > remaining {
		span = remaining
	}
	return span
}

// replayRun replays one isolated strided run at line granularity. Only
// the first access to each line probes the tag array; the rest of the
// line's accesses cannot miss (no other access touches the set before
// the run leaves the line) and are accounted arithmetically. Misses
// forward to the next level: one access for a load or write-allocate
// store (the line is installed here and absorbs the rest), the whole
// span for a write-around store miss (nothing is installed, so every
// access in the line propagates).
func replayRun(levels []*Cache, lv int, base, stride, count int64, store bool) {
	c := levels[lv]
	lb := int64(1) << c.lineShift
	last := lv+1 >= len(levels)
	wa := c.cfg.WriteAllocate
	dm := c.assoc == 1
	var acc, misses uint64
	// When a positive stride divides the line size — both are powers of
	// two, so "divides" is exactly "is a power of two no larger than the
	// line" — every span after the first (possibly partial) line has the
	// same length: the offset within the line at each crossing lands in
	// [0, stride), so each full line holds exactly lb>>strideShift
	// accesses. That removes every division from the replay loop.
	fullSpan := int64(0)
	var strideShift uint
	if stride > 0 && stride <= lb && stride&(stride-1) == 0 {
		strideShift = uint(bits.TrailingZeros64(uint64(stride)))
		fullSpan = lb >> strideShift
	}
	if fullSpan != 0 && dm && c.pow2 {
		if store {
			replayStoreDM(levels, lv, c, base, stride, count, fullSpan, strideShift, lb)
		} else {
			replayLoadDM(levels, lv, c, base, stride, count, fullSpan, strideShift, lb)
		}
		return
	}
	for i := int64(0); i < count; {
		addr := base + i*stride
		var span int64
		if fullSpan != 0 {
			if i == 0 {
				span = (lb - (addr & (lb - 1)) + stride - 1) >> strideShift
			} else {
				span = fullSpan
			}
			if rem := count - i; span > rem {
				span = rem
			}
		} else {
			span = lineSpan(addr, stride, lb, count-i)
		}
		line := addr >> c.lineShift
		slot := -1
		if dm {
			if s := c.set(line); c.tags[s] == line {
				slot = s
			}
		} else {
			slot = c.probe(line)
		}
		acc += uint64(span)
		switch {
		case !store: // load
			if slot < 0 {
				misses++
				c.installFast(line, dm)
				if !last {
					replayRun(levels, lv+1, addr, 0, 1, false)
				}
			}
		case slot >= 0: // store hit
			if wa {
				c.dirty[slot] = true
			}
		case wa: // write-allocate store miss: install, rest of span hits
			misses++
			s := c.installFast(line, dm)
			c.dirty[s] = true
			if !last {
				replayRun(levels, lv+1, addr, 0, 1, true)
			}
		default: // write-around store miss: the whole span misses
			misses += uint64(span)
			if !last {
				replayRun(levels, lv+1, addr, stride, span, true)
			}
		}
		i += span
	}
	if store {
		c.stats.Stores += acc
		c.stats.StoreMisses += misses
	} else {
		c.stats.Loads += acc
		c.stats.LoadMisses += misses
	}
}

// replayLoadDM is the replayRun inner loop specialized for the hot case:
// a load run with a positive line-dividing stride on a direct-mapped
// power-of-two cache. Consecutive spans advance the line number by
// exactly one, so the loop is an increment, a masked tag compare and a
// rare miss branch per line. The set mask is rederived from the tag
// slice length (identical to setMask here) so the compiler can drop the
// bounds check.
func replayLoadDM(levels []*Cache, lv int, c *Cache, base, stride, count, fullSpan int64, strideShift uint, lb int64) {
	tags := c.tags
	mask := int64(len(tags) - 1)
	next := levels[lv+1:]
	// When the next level is the same simple geometry (the usual L1→L2
	// hierarchy), a miss resolves with an inlined probe instead of a call.
	var c2 *Cache
	if len(next) == 1 && next[0].assoc == 1 && next[0].pow2 && !next[0].cfg.NextLinePrefetch {
		c2 = next[0]
	}
	// Consecutive missed lines of one run often share a coarser next-level
	// line; once probed it stays resident for the rest of the run (nothing
	// else touches the level in between), so repeats skip the tag lookup.
	prev2 := int64(-1)
	forward := func(addr int64) {
		if c2 != nil {
			line2 := addr >> c2.lineShift
			c2.stats.Loads++
			if line2 == prev2 {
				return
			}
			s2 := int(line2 & c2.setMask)
			if c2.tags[s2] != line2 {
				c2.stats.LoadMisses++
				if c2.tags[s2] != -1 && c2.dirty[s2] {
					c2.stats.Writebacks++
				}
				c2.tags[s2] = line2
				c2.dirty[s2] = false
			}
			prev2 = line2
		} else if len(next) > 0 {
			loadThrough(next, addr)
		}
	}
	var misses uint64
	line := base >> c.lineShift
	first := (lb - (base & (lb - 1)) + stride - 1) >> strideShift
	if first > count {
		first = count
	}
	if s := line & mask; tags[s] != line {
		misses++
		if tags[s] != -1 && c.dirty[s] {
			c.stats.Writebacks++
		}
		tags[s] = line
		c.dirty[s] = false
		forward(base)
	}
	// Interior lines all hold exactly fullSpan accesses and their first
	// access advances by exactly one line size, so the loop needs no span
	// arithmetic at all.
	nFull := (count - first) / fullSpan
	tail := count - first - nFull*fullSpan
	addr := base + first*stride
	for k := int64(0); k < nFull; k++ {
		line++
		if s := line & mask; tags[s] != line {
			misses++
			if tags[s] != -1 && c.dirty[s] {
				c.stats.Writebacks++
			}
			tags[s] = line
			c.dirty[s] = false
			forward(addr)
		}
		addr += lb
	}
	if tail > 0 {
		line++
		if s := line & mask; tags[s] != line {
			misses++
			if tags[s] != -1 && c.dirty[s] {
				c.stats.Writebacks++
			}
			tags[s] = line
			c.dirty[s] = false
			forward(addr)
		}
	}
	c.stats.Loads += uint64(count)
	c.stats.LoadMisses += misses
}

// replayStoreDM is the same specialization for a store run. A
// write-allocate miss installs here and forwards one access; a
// write-around miss forwards the whole span and installs nothing.
func replayStoreDM(levels []*Cache, lv int, c *Cache, base, stride, count, fullSpan int64, strideShift uint, lb int64) {
	tags := c.tags
	mask := int64(len(tags) - 1)
	next := levels[lv+1:]
	wa := c.cfg.WriteAllocate
	// Same single-next-level inline as replayLoadDM. A span forwarded
	// from a write-around miss never straddles a line of a coarser next
	// level, and an installed (or hit) next-level line stays resident for
	// the rest of the run, so repeated spans skip the tag lookup.
	var c2 *Cache
	if len(next) == 1 && next[0].assoc == 1 && next[0].pow2 && !next[0].cfg.NextLinePrefetch &&
		next[0].lineShift >= c.lineShift {
		c2 = next[0]
	}
	prev2 := int64(-1)
	forwardSpan := func(addr, span int64) {
		if c2 != nil {
			line2 := addr >> c2.lineShift
			c2.stats.Stores += uint64(span)
			if line2 == prev2 {
				// prev2 is only set when the line is resident: a repeat
				// is a hit whatever the write policy (dirty already set).
				return
			}
			s2 := int(line2 & c2.setMask)
			switch {
			case c2.tags[s2] == line2:
				if c2.cfg.WriteAllocate {
					c2.dirty[s2] = true
				}
				prev2 = line2
			case c2.cfg.WriteAllocate:
				// Install on the first store; the rest of the span hits.
				c2.stats.StoreMisses++
				if c2.tags[s2] != -1 && c2.dirty[s2] {
					c2.stats.Writebacks++
				}
				c2.tags[s2] = line2
				c2.dirty[s2] = true
				prev2 = line2
			default:
				// Write-around next level: nothing installed, every access
				// of the span misses and there is no level below to take it.
				c2.stats.StoreMisses += uint64(span)
			}
		} else if len(next) > 0 {
			storeSpanThrough(next, addr, stride, span)
		}
	}
	var misses uint64
	line := base >> c.lineShift
	span := (lb - (base & (lb - 1)) + stride - 1) >> strideShift
	for i := int64(0); ; {
		if span > count-i {
			span = count - i
		}
		if s := line & mask; tags[s] == line {
			if wa {
				c.dirty[s] = true
			}
		} else if wa {
			misses++
			if tags[s] != -1 && c.dirty[s] {
				c.stats.Writebacks++
			}
			tags[s] = line
			c.dirty[s] = true
			if len(next) > 0 {
				storeThrough(next, base+i*stride)
			}
		} else {
			misses += uint64(span)
			forwardSpan(base+i*stride, span)
		}
		if i += span; i >= count {
			break
		}
		line++
		span = fullSpan
	}
	c.stats.Stores += uint64(count)
	c.stats.StoreMisses += misses
}

// storeSpanThrough forwards a write-around store miss span down the
// hierarchy. A span propagated from a finer level usually lands in a
// single line of each coarser level, which resolves with one probe: a
// hit or write-allocate install absorbs the span, a write-around miss
// passes it on. Any level where the span straddles a line boundary (or
// with an odd geometry) falls back to the general strided replay.
func storeSpanThrough(levels []*Cache, addr, stride, span int64) {
	for lvi, c := range levels {
		if c.assoc == 1 && c.pow2 && !c.cfg.NextLinePrefetch {
			line := addr >> c.lineShift
			if (addr+(span-1)*stride)>>c.lineShift == line {
				s := int(line & c.setMask)
				c.stats.Stores += uint64(span)
				if c.tags[s] == line {
					if c.cfg.WriteAllocate {
						c.dirty[s] = true
					}
					return
				}
				if c.cfg.WriteAllocate {
					// Install on the first store; the rest of the span hits.
					c.stats.StoreMisses++
					if c.tags[s] != -1 && c.dirty[s] {
						c.stats.Writebacks++
					}
					c.tags[s] = line
					c.dirty[s] = true
					if lvi+1 < len(levels) {
						storeThrough(levels[lvi+1:], addr)
					}
					return
				}
				c.stats.StoreMisses += uint64(span)
				continue
			}
		}
		replayRun(levels, lvi, addr, stride, span, true)
		return
	}
}

// installFast is install with the direct-mapped victim selection inlined.
func (c *Cache) installFast(line int64, dm bool) int {
	if dm {
		s := c.set(line)
		if c.tags[s] != -1 && c.dirty[s] {
			c.stats.Writebacks++
		}
		c.tags[s] = line
		c.dirty[s] = false
		return s
	}
	return c.install(line)
}

// replayLadder replays a cluster with a strict leader (see ladderShape).
// Every trailing member lags the leader by at least one full stride, so
// for any line L the leader's first access to L happens at a strictly
// earlier lockstep index than any trailing member's (for exact address
// duplicates, at the same index but earlier in group order). Loads
// install at the first level on a miss, at least two sets per level keep
// adjacent lines in different sets, and the cluster spans at most two
// adjacent lines at any index — so a line installed by the leader stays
// resident until every member has passed it. Therefore after an exact
// prefix of ceil(maxDelta/|stride|) indices (by which every trailing
// member has entered the leader's line range):
//
//   - the leader's remaining accesses behave exactly like an isolated
//     run and replay through replayRun;
//   - every trailing access finds its line at the first level: loads are
//     L1 hits, stores are L1 write-around hits (write-allocate first
//     levels are excluded by ladderShape because a store hit would have
//     to dirty the line in evict order).
//
// Trailing hits never change tag or dirty state and their skipped LRU
// refreshes collapse per set (each set holds a single active line while
// the cluster passes), so the accounting is exact.
func replayLadder(levels []*Cache, g []Run, members []int32, n int64) {
	s := g[members[0]].Stride
	abs := s
	if abs < 0 {
		abs = -abs
	}
	lead := members[0]
	var dmax int64
	for _, mi := range members[1:] {
		d := g[mi].Base - g[lead].Base
		if s < 0 {
			d = -d
		}
		if d > 0 {
			lead = mi
		}
	}
	for _, mi := range members {
		d := g[lead].Base - g[mi].Base
		if s < 0 {
			d = -d
		}
		if d > dmax {
			dmax = d
		}
	}
	prefix := (dmax + abs - 1) / abs
	if prefix > n {
		prefix = n
	}
	replayExactGroup(levels, g, members, prefix)
	rem := n - prefix
	if rem == 0 {
		return
	}
	replayRun(levels, 0, g[lead].Base+prefix*s, s, rem, false)
	l1 := levels[0]
	for _, mi := range members {
		if mi == lead {
			continue
		}
		if g[mi].Store {
			l1.stats.Stores += uint64(rem)
		} else {
			l1.stats.Loads += uint64(rem)
		}
	}
}

// replayInterleaved replays one component per access in lockstep order
// on the concrete caches — exact for arbitrary conflicts. When the L1 is
// a power-of-two direct-mapped or 2-way LRU cache without prefetching
// (every L1 of the paper's experiments), the whole access is
// inlined: the L1 probe, LRU refresh, victim choice and install, and,
// over a single power-of-two direct-mapped next level (the paper's L2),
// that level's probe, install and writeback too; any other level below
// takes loadThrough/storeThrough on a miss. Each access makes the state
// transition Cache.Load/Store would make, in lockstep order and with the
// same LRU clock values, so statistics and final state are identical.
// Any other L1 takes the plain per-access walk, including a
// direct-mapped one whose set count is not a power of two, which the
// advisor accepts: choosing the set index per access would slow the
// power-of-two L1s.
func replayInterleaved(levels []*Cache, g []Run, members []int32, n int64) {
	l1 := levels[0]
	k := len(members)
	if !l1.pow2 || l1.assoc > 2 || l1.cfg.NextLinePrefetch || k > maxGroup {
		replayExactGroup(levels, g, members, n)
		return
	}
	var addr, stride [maxGroup]int64
	var store [maxGroup]bool
	var nStores uint64
	for j, mi := range members {
		r := &g[mi]
		addr[j], stride[j], store[j] = r.Base, r.Stride, r.Store
		if r.Store {
			nStores++
		}
	}
	tags, dirty, stamp, clock := l1.tags, l1.dirty, l1.stamp, l1.clock
	shift, mask := l1.lineShift, l1.setMask
	twoWay, wa := l1.assoc == 2, l1.cfg.WriteAllocate
	below := levels[1:]
	var l2 *Cache
	if len(below) == 1 && below[0].assoc == 1 && below[0].pow2 && !below[0].cfg.NextLinePrefetch {
		l2 = below[0]
	}
	var tags2 []int64
	var dirty2 []bool
	var shift2 uint
	var mask2 int64
	var wa2 bool
	if l2 != nil {
		tags2, dirty2, shift2, mask2, wa2 = l2.tags, l2.dirty, l2.lineShift, l2.setMask, l2.cfg.WriteAllocate
	}
	var s1, s2 Stats
	for i := int64(0); i < n; i++ {
		for j := 0; j < k; j++ {
			a := addr[j]
			addr[j] = a + stride[j]
			st := store[j]
			line := a >> shift
			var slot int
			hit := false
			if twoWay {
				b := int(line&mask) << 1
				switch {
				case tags[b] == line:
					slot, hit = b, true
				case tags[b+1] == line:
					slot, hit = b+1, true
				default:
					// Cache.install's victim: an empty way first, else
					// the smaller stamp (way 0 on a tie).
					slot = b
					if tags[b] != -1 && (tags[b+1] == -1 || stamp[b+1] < stamp[b]) {
						slot = b + 1
					}
				}
			} else {
				slot = int(line & mask)
				hit = tags[slot] == line
			}
			if hit {
				if twoWay {
					clock++
					stamp[slot] = clock
				}
				if st && wa {
					dirty[slot] = true
				}
				continue
			}
			if st {
				s1.StoreMisses++
			} else {
				s1.LoadMisses++
			}
			if !st || wa {
				if twoWay {
					clock++
					stamp[slot] = clock
				}
				if tags[slot] != -1 && dirty[slot] {
					s1.Writebacks++
				}
				tags[slot] = line
				dirty[slot] = st
			}
			switch {
			case l2 != nil:
				line2 := a >> shift2
				s := int(line2 & mask2)
				if tags2[s] == line2 {
					if st && wa2 {
						dirty2[s] = true
					}
					continue
				}
				if st {
					s2.StoreMisses++
				} else {
					s2.LoadMisses++
				}
				if !st || wa2 {
					if tags2[s] != -1 && dirty2[s] {
						s2.Writebacks++
					}
					tags2[s] = line2
					dirty2[s] = st
				}
			case len(below) > 0:
				if st {
					storeThrough(below, a)
				} else {
					loadThrough(below, a)
				}
			}
		}
	}
	// Every L1 access of the component is counted arithmetically; every
	// L1 miss reaches the next level as one access of the same kind.
	s1.Loads = uint64(n) * (uint64(k) - nStores)
	s1.Stores = uint64(n) * nStores
	l1.clock = clock
	l1.stats.Add(s1)
	if l2 != nil {
		s2.Loads, s2.Stores = s1.LoadMisses, s1.StoreMisses
		l2.stats.Add(s2)
	}
}

package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// The batched replay engine must be indistinguishable from the
// per-access path. These tests drive both over randomized run lists on
// adversarial geometries and require identical statistics, identical
// tag/dirty state, and identical behavior on follow-up traffic (which
// catches LRU-recency divergence that stats alone would miss).

func replayConfigs() map[string][]Config {
	return map[string][]Config{
		"ultrasparc2":    {UltraSparc2L1(), UltraSparc2L2()},
		"tinyDM":         {{SizeBytes: 256, LineBytes: 32}},
		"tinyPair":       {{SizeBytes: 256, LineBytes: 32}, {SizeBytes: 2048, LineBytes: 64, WriteAllocate: true}},
		"assoc4":         {{SizeBytes: 1024, LineBytes: 32, Assoc: 4}},
		"assocPair":      {{SizeBytes: 512, LineBytes: 32, Assoc: 2}, {SizeBytes: 4096, LineBytes: 64, Assoc: 4, WriteAllocate: true}},
		"nonPow2Sets":    {{SizeBytes: 1536, LineBytes: 32}},
		"fullyAssoc":     {{SizeBytes: 256, LineBytes: 32, Assoc: 8}},
		"singleLine":     {{SizeBytes: 32, LineBytes: 32}},
		"writeAllocL1":   {{SizeBytes: 512, LineBytes: 32, WriteAllocate: true}},
		"prefetch":       {{SizeBytes: 512, LineBytes: 32, NextLinePrefetch: true}, {SizeBytes: 4096, LineBytes: 64, WriteAllocate: true}},
		"prefetchL2":     {{SizeBytes: 512, LineBytes: 32}, {SizeBytes: 4096, LineBytes: 64, WriteAllocate: true, NextLinePrefetch: true}},
		"threeLevel":     {{SizeBytes: 256, LineBytes: 32}, {SizeBytes: 1024, LineBytes: 32, Assoc: 2}, {SizeBytes: 8192, LineBytes: 128, WriteAllocate: true}},
		"coarseThenFine": {{SizeBytes: 512, LineBytes: 64}, {SizeBytes: 2048, LineBytes: 32, WriteAllocate: true}},
		// The inlined two-level interleaved path: 2-way and direct-mapped
		// L1s over one direct-mapped L2, both write policies at each level.
		"assoc2OverDM":     {{SizeBytes: 512, LineBytes: 32, Assoc: 2}, {SizeBytes: 4096, LineBytes: 64, WriteAllocate: true}},
		"assoc2WAOverDM":   {{SizeBytes: 512, LineBytes: 32, Assoc: 2, WriteAllocate: true}, {SizeBytes: 4096, LineBytes: 64, WriteAllocate: true}},
		"line64OverDM":     {{SizeBytes: 512, LineBytes: 64}, {SizeBytes: 4096, LineBytes: 64, WriteAllocate: true}},
		"writeAllocOverWT": {{SizeBytes: 512, LineBytes: 32, WriteAllocate: true}, {SizeBytes: 4096, LineBytes: 64}},
		"advisorAssoc2":    {{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2}, UltraSparc2L2()},
	}
}

// randRuns builds a run list mixing the shapes the walkers emit
// (lockstep stencil groups, clusters, row sweeps) with adversarial ones
// (zero and negative strides, set-aliasing deltas, continuation runs
// whose counts differ from their leader's and therefore split groups).
func randRuns(rng *rand.Rand, groups int) []Run {
	strides := []int64{8, 8, 8, -8, 16, 0, 24, 64, 2048, 16384}
	var runs []Run
	for g := 0; g < groups; g++ {
		count := int32(1 + rng.Intn(120))
		width := 1
		if rng.Intn(3) > 0 {
			width += rng.Intn(6)
		}
		base := int64(8192 + rng.Intn(1<<16))
		stride := strides[rng.Intn(len(strides))]
		for m := 0; m < width; m++ {
			var delta int64
			switch rng.Intn(3) {
			case 0: // cluster-like: within one line
				delta = int64(rng.Intn(48) - 24)
			case 1: // nearby rows
				delta = int64(rng.Intn(8192) - 4096)
			default: // set-aliasing plane strides
				delta = int64(rng.Intn(5)-2) * 256 * int64(1+rng.Intn(3))
			}
			r := Run{
				Base:   base + delta,
				Stride: stride,
				Count:  count,
				Store:  rng.Intn(4) == 0,
				Cont:   m > 0,
			}
			if rng.Intn(4) == 0 {
				r.Stride = strides[rng.Intn(len(strides))]
			}
			if m > 0 && rng.Intn(10) == 0 {
				r.Count = int32(1 + rng.Intn(120)) // splits the group
			}
			runs = append(runs, r)
		}
	}
	return runs
}

// checkSameState requires identical statistics, tags and dirty bits,
// naming the first slot that differs, and then, through StateEqual, the
// same LRU order in every set: a wrong recency refresh fails at the
// trial that made it.
func checkSameState(t *testing.T, label string, want, got []*Cache) {
	t.Helper()
	for l := range want {
		if ws, gs := want[l].stats, got[l].stats; ws != gs {
			t.Errorf("%s: L%d stats differ:\n per-access %+v\n batched    %+v", label, l+1, ws, gs)
		}
		for i := range want[l].tags {
			if want[l].tags[i] != got[l].tags[i] {
				t.Fatalf("%s: L%d tag[%d] = %d per-access, %d batched", label, l+1, i, want[l].tags[i], got[l].tags[i])
			}
			if want[l].dirty[i] != got[l].dirty[i] {
				t.Fatalf("%s: L%d dirty[%d] = %v per-access, %v batched", label, l+1, i, want[l].dirty[i], got[l].dirty[i])
			}
		}
		if !want[l].StateEqual(got[l]) {
			t.Fatalf("%s: L%d LRU order differs", label, l+1)
		}
	}
}

func TestReplayRunsMatchesPerAccess(t *testing.T) {
	for name, cfgs := range replayConfigs() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			want := MustHierarchy(cfgs...)
			got := MustHierarchy(cfgs...)
			for trial := 0; trial < 40; trial++ {
				runs := randRuns(rng, 15)
				ExpandRuns(runs, want) // per-access reference path
				got.ReplayRuns(runs)
				checkSameState(t, fmt.Sprintf("%s trial %d", name, trial), want.levels, got.levels)
				if t.Failed() {
					return
				}
			}
			// Follow-up traffic through the per-access path on both must
			// agree too: this verifies the surviving LRU recency order,
			// which the statistics comparison cannot see.
			for i := 0; i < 5000; i++ {
				addr := int64(rng.Intn(1 << 17))
				if rng.Intn(4) == 0 {
					want.Store(addr)
					got.Store(addr)
				} else {
					want.Load(addr)
					got.Load(addr)
				}
			}
			checkSameState(t, name+" follow-up", want.levels, got.levels)
		})
	}
}

// TestReplayRunsSingleLevel drives a one-level hierarchy's batched entry
// point against a bare cache fed per access.
func TestReplayRunsSingleLevel(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 256, LineBytes: 32},
		{SizeBytes: 1024, LineBytes: 32, Assoc: 4, WriteAllocate: true},
		{SizeBytes: 1536, LineBytes: 32},
	} {
		rng := rand.New(rand.NewSource(7))
		want, got := mustNew(cfg), MustHierarchy(cfg)
		for trial := 0; trial < 30; trial++ {
			runs := randRuns(rng, 10)
			ExpandRuns(runs, perAccessCache{want})
			got.ReplayRuns(runs)
			checkSameState(t, fmt.Sprintf("%v trial %d", cfg, trial), []*Cache{want}, got.levels)
			if t.Failed() {
				return
			}
		}
	}
}

// perAccessCache adapts a single *Cache to Memory (ignoring the hit
// result, as a one-level hierarchy would).
type perAccessCache struct{ c *Cache }

func (p perAccessCache) Load(addr int64)  { p.c.Load(addr) }
func (p perAccessCache) Store(addr int64) { p.c.Store(addr) }

// TestReplayRunsGroupShapes pins the tricky group-boundary semantics:
// continuation runs with mismatched counts start a new group, empty and
// negative counts are skipped, and a leading Cont flag binds nothing.
func TestReplayRunsGroupShapes(t *testing.T) {
	runs := []Run{
		{Base: 0, Stride: 8, Count: 4},
		{Base: 4096, Stride: 8, Count: 4, Cont: true},
		{Base: 8192, Stride: 8, Count: 9, Cont: true}, // new group: count differs
		{Base: 64, Stride: 0, Count: 0},               // empty
		{Base: 128, Stride: -16, Count: -3},           // negative: skipped
		{Base: 256, Stride: 0, Count: 7, Store: true},
		{Base: 300, Stride: 8, Count: 1, Cont: true}, // count differs: own group
	}
	cfgs := []Config{{SizeBytes: 256, LineBytes: 32}, {SizeBytes: 1024, LineBytes: 64, WriteAllocate: true}}
	want, got := MustHierarchy(cfgs...), MustHierarchy(cfgs...)
	ExpandRuns(runs, want)
	got.ReplayRuns(runs)
	checkSameState(t, "group shapes", want.levels, got.levels)
	wl1 := want.Level(0).Stats()
	if wl1.Accesses() != 4+4+9+7+1 {
		t.Errorf("per-access path executed %d accesses, want %d", wl1.Accesses(), 4+4+9+7+1)
	}
}

// TestReplayPhasedComponents pins the phase-ordered split: equal-stride
// runs that conflict in set space but visit every shared set in
// well-separated lockstep windows replay one run at a time.
func TestReplayPhasedComponents(t *testing.T) {
	// The untiled padded Jacobi shape that motivates the path: two
	// full-row plane neighbors (DI=288, DJ=272 after GcdPadNT at N=256)
	// whose 64-line footprints partially alias in the UltraSparc2 L1 but
	// 224 lockstep indices apart. It must split into two single runs,
	// not fall back to the interleaved component.
	g := []Run{
		{Base: 19431944, Stride: 8, Count: 254},
		{Base: 20056328, Stride: 8, Count: 254, Cont: true},
	}
	h := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
	env := replayEnv{lbFine: 32, lbCoarse: 64, ladderOK: true}
	var order, start [maxGroup + 1]int32
	var kind [maxGroup]compKind
	ncomp := computePartition(h.levels, g, &env, order[:len(g)], start[:len(g)+1], kind[:len(g)])
	if ncomp != 2 || kind[0] != compSingle || kind[1] != compSingle {
		t.Fatalf("partition: ncomp=%d kind=%v, want two compSingle components", ncomp, kind[:ncomp])
	}
	// The k+1 plane's sets lie 224 indices ahead of the k-1 plane's, so
	// phase order must put the second run first.
	if order[0] != 1 || order[1] != 0 {
		t.Errorf("phase order %v, want [1 0]", order[:2])
	}

	// Differential: the phase-ordered replay must match per-access exactly,
	// including across repeated sweeps that start from the previous
	// sweep's surviving state.
	want := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
	got := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
	for pass := 0; pass < 3; pass++ {
		ExpandRuns(g, want)
		got.ReplayRuns(g)
		checkSameState(t, fmt.Sprintf("jacobi-nt pass %d", pass), want.levels, got.levels)
	}

	// Randomized phase-gap boundaries: equal-stride groups whose base
	// deltas hover around multiples of each level's set period, where
	// the visit windows are closest and the partition must choose
	// between phase-ordered clusters and the exact interleaved fallback.
	// Some members are three-run {-8, 0, +8} clusters: ladders at
	// stride ±8, half-stride clusters at 16, spread ones at 64.
	for name, cfgs := range replayConfigs() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			want := MustHierarchy(cfgs...)
			got := MustHierarchy(cfgs...)
			strides := []int64{8, 16, -8, 64}
			for trial := 0; trial < 60; trial++ {
				stride := strides[rng.Intn(len(strides))]
				count := int32(64 + rng.Intn(400))
				width := 2 + rng.Intn(4)
				base := int64(1 << 20)
				var runs []Run
				for m := 0; m < width; m++ {
					// Deltas around the L1 period (16K for ultrasparc2,
					// smaller for the tiny configs) plus jitter that
					// crosses the minimum-gap threshold in both directions.
					period := int64(cfgs[0].SizeBytes)
					delta := int64(rng.Intn(5)-2)*period + int64(rng.Intn(301)-150)
					offs := []int64{0}
					if rng.Intn(2) == 0 {
						offs = []int64{-8, 0, 8}
					}
					for _, off := range offs {
						runs = append(runs, Run{
							Base:   base + delta + off,
							Stride: stride,
							Count:  count,
							Store:  rng.Intn(5) == 0,
							Cont:   len(runs) > 0,
						})
					}
				}
				ExpandRuns(runs, want)
				got.ReplayRuns(runs)
				checkSameState(t, fmt.Sprintf("%s trial %d", name, trial), want.levels, got.levels)
				if t.Failed() {
					return
				}
			}
		})
	}
}

// TestReplayHalfStrideClusters pins the routing of same-stride
// components that fit in one line. Red-black, the multigrid restriction
// (rprj3) and the prolongation (interp) step 16 bytes with members 8
// bytes apart, so no member leads the others by a full stride: each is
// one general component, replayed by the exact interleaved loop. JACOBI's
// {i-1, i+1} pair at stride 8 has a strict leader and stays a ladder.
// Every shape must then replay exactly on every test geometry.
func TestReplayHalfStrideClusters(t *testing.T) {
	type member struct {
		off   int64
		store bool
	}
	shapes := []struct {
		name   string
		stride int64
		ms     []member
		want   compKind
	}{
		{"redblack", 16, []member{{0, false}, {-8, false}, {8, false}, {0, true}}, compGeneral},
		{"rprj3", 16, []member{{0, false}, {8, false}, {16, false}}, compGeneral},
		{"interp", 16, []member{{0, false}, {0, true}, {8, false}, {8, true}}, compGeneral},
		{"jacobi", 8, []member{{-8, false}, {8, false}}, compLadder},
	}
	group := func(base, stride int64, count int32, ms []member) []Run {
		g := make([]Run, len(ms))
		for i, m := range ms {
			g[i] = Run{Base: base + m.off, Stride: stride, Count: count, Store: m.store, Cont: i > 0}
		}
		return g
	}

	h := MustHierarchy(UltraSparc2L1(), UltraSparc2L2())
	h.ReplayRuns(nil) // derives the hierarchy's replayEnv
	for _, sh := range shapes {
		g := group(1<<20, sh.stride, 100, sh.ms)
		var order, start [maxGroup + 1]int32
		var kind [maxGroup]compKind
		ncomp := computePartition(h.levels, g, &h.memo.env, order[:len(g)], start[:len(g)+1], kind[:len(g)])
		if ncomp != 1 || kind[0] != sh.want {
			t.Errorf("%s: ncomp=%d kind=%v, want one component of kind %v", sh.name, ncomp, kind[:ncomp], sh.want)
		}
	}

	for name, cfgs := range replayConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, sh := range shapes {
				want, got := MustHierarchy(cfgs...), MustHierarchy(cfgs...)
				for _, align := range []int64{0, 8, 24, 56} {
					for _, count := range []int32{5, 300} {
						g := group(1<<20+align, sh.stride, count, sh.ms)
						ExpandRuns(g, want)
						got.ReplayRuns(g)
						checkSameState(t, fmt.Sprintf("%s align %d count %d", sh.name, align, count), want.levels, got.levels)
						if t.Failed() {
							return
						}
					}
				}
			}
		})
	}
}

// partitionString renders a group's partition in replay order: each
// component's kind (S single, L ladder, G interleaved) and its members.
func partitionString(h *Hierarchy, g []Run) string {
	h.ReplayRuns(nil) // derives the hierarchy's replayEnv
	var order, start [maxGroup + 1]int32
	var kind [maxGroup]compKind
	ncomp := computePartition(h.levels, g, &h.memo.env, order[:len(g)], start[:len(g)+1], kind[:len(g)])
	out := ""
	for c := 0; c < ncomp; c++ {
		if c > 0 {
			out += " "
		}
		out += fmt.Sprintf("%c%v", "SLG"[kind[c]], order[start[c]:start[c+1]])
	}
	return out
}

// TestReplayPhaseOrderedClusters pins the cluster split of equal-stride
// components: members within one finest line form a cluster, and when
// every pair of clusters visits every shared set in disjoint lockstep
// windows each cluster replays whole, as its own single, ladder or
// interleaved component, in phase order. With ascending strides the
// cluster that sits higher in set space reaches a shared set first;
// descending strides flip that. Overlapping windows keep the component
// whole. Every shape must then replay exactly on every test geometry.
func TestReplayPhaseOrderedClusters(t *testing.T) {
	type member struct {
		off   int64
		store bool
	}
	row := func(off int64) []member { return []member{{off - 8, false}, {off, false}, {off + 8, false}} }
	// RESID at N=100, K=16 (Orig): R, V and U are consecutive 1.28 MB
	// arrays with 800-byte rows and 80,000-byte planes. A plane is
	// -1,920 bytes in the set space of the 16K direct-mapped L1 and of
	// the advisor's 16K 2-way L1, so the nine U rows' footprints
	// overlap in sets, each pair 100 or more lockstep indices apart.
	const arr, drow, dplane = 1280000, 800, 80000
	resid := []member{{0, false}} // V(i,j,k)
	for _, dk := range []int64{0, -1, 1} {
		for _, dj := range []int64{0, -1, 1} {
			resid = append(resid, row(arr+dk*dplane+dj*drow)...)
		}
	}
	resid = append(resid, member{-arr, true}) // R(i,j,k)
	// JACOBI's {i-1, i+1} ladder with its K±1 rows, planes 400 bytes
	// off a multiple of the L1's set period: each K neighbour's row
	// overlaps the ladder's sets 51 lockstep indices apart.
	jacobi := []member{{-8, false}, {8, false}, {-4*16384 - 400, false}, {4*16384 + 400, false}}
	// Red-black's half-stride cluster with its K±1 rows, planes placed
	// 10 lines off a multiple of the L1's set period.
	redblack := []member{{0, false}, {-8, false}, {8, false}, {0, true}, {-16384 - 320, false}, {16384 + 320, false}}
	// The JACOBI shape with its planes 16 bytes off the period: the
	// rows reach the ladder's sets at the same lockstep indices.
	overlap := []member{{-8, false}, {8, false}, {-16384 - 16, false}, {16384 + 16, false}}
	// A four-run ladder, 24 bytes wide, and a row 48 bytes above a
	// multiple of the period: the row reaches each shared set six
	// indices before the leader, and the ladder's lowest member is
	// still in the set then. Only the width term of the gap sees it.
	wide := []member{{0, false}, {8, false}, {16, false}, {24, false}, {4*16384 + 48, false}}

	const residOrder = "L[16 17 18] L[10 11 12] L[13 14 15] L[7 8 9] L[1 2 3] L[4 5 6] L[25 26 27] L[19 20 21] S[0] L[22 23 24] S[28]"
	dm := []Config{UltraSparc2L1(), UltraSparc2L2()}
	assoc2 := []Config{{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2}, UltraSparc2L2()}
	shapes := []struct {
		name   string
		stride int64
		count  int32
		ms     []member
		cfgs   []Config
		want   string
	}{
		// Rows in descending set position: (k-1, j+1) at +2,720 bytes
		// from U(j,k) down to (k+1, j-1) at -2,720, with V at -2,048
		// and R at -4,096.
		{"resid-dm", 8, 98, resid, dm, residOrder},
		{"resid-assoc2", 8, 98, resid, assoc2, residOrder},
		{"jacobi", 8, 88, jacobi, dm, "S[3] L[0 1] S[2]"},
		{"redblack", 16, 48, redblack, dm, "S[5] G[0 1 2 3] S[4]"},
		{"descending", -8, 88, jacobi, dm, "S[2] L[0 1] S[3]"},
		{"overlap", 8, 88, overlap, dm, "G[0 1 2 3]"},
		{"wide", 8, 88, wide, dm, "G[0 1 2 3 4]"},
	}
	group := func(base, stride int64, count int32, ms []member) []Run {
		g := make([]Run, len(ms))
		for i, m := range ms {
			g[i] = Run{Base: base + m.off, Stride: stride, Count: count, Store: m.store, Cont: i > 0}
		}
		return g
	}
	const base = 1 << 22
	for _, sh := range shapes {
		if got := partitionString(MustHierarchy(sh.cfgs...), group(base, sh.stride, sh.count, sh.ms)); got != sh.want {
			t.Errorf("%s: partition %s, want %s", sh.name, got, sh.want)
		}
	}
	// The split works in fixed arrays: partitioning allocates nothing.
	h := MustHierarchy(dm...)
	h.ReplayRuns(nil)
	g := group(base, 8, 98, resid)
	var order, start [maxGroup + 1]int32
	var kind [maxGroup]compKind
	if a := testing.AllocsPerRun(20, func() {
		computePartition(h.levels, g, &h.memo.env, order[:len(g)], start[:len(g)+1], kind[:len(g)])
	}); a != 0 {
		t.Errorf("computePartition allocates %.0f times per call", a)
	}

	for name, cfgs := range replayConfigs() {
		t.Run(name, func(t *testing.T) {
			for _, sh := range shapes {
				want, got := MustHierarchy(cfgs...), MustHierarchy(cfgs...)
				for _, align := range []int64{0, 8, 24, 56} {
					for _, count := range []int32{7, sh.count} {
						g := group(base+align, sh.stride, count, sh.ms)
						ExpandRuns(g, want)
						got.ReplayRuns(g)
						checkSameState(t, fmt.Sprintf("%s align %d count %d", sh.name, align, count), want.levels, got.levels)
						if t.Failed() {
							return
						}
					}
				}
			}
		})
	}
}

// TestReplayMemoKeyIncludesAlignmentAndCount pins two ways the partition
// memo could go stale while strides and byte deltas match, both found by
// kernel-level differential testing:
//
//   - Alignment: shifting a group by a non-multiple of the line size
//     moves the runs' line-number differences by ±1, creating a set
//     conflict the previous same-delta group did not have (a tiled
//     walker stepping its tile origin by half a line does this).
//   - Count: a longer lockstep count extends the footprints until they
//     wrap onto each other modulo the set count.
//
// Each scenario first replays a conflict-free group to populate the
// memo, then a group the memo must NOT be reused for; reuse would replay
// the conflicting runs sequentially and diverge from per-access order.
func TestReplayMemoKeyIncludesAlignmentAndCount(t *testing.T) {
	cfgs := []Config{{SizeBytes: 2048, LineBytes: 32}} // 64 sets, direct-mapped
	scenarios := map[string][][]Run{
		"alignment": {
			// A pins line 0 (set 0); B sweeps lines 62..63: disjoint.
			{{Base: 0, Stride: 0, Count: 6}, {Base: 2000, Stride: 8, Count: 6, Cont: true}},
			// Same deltas, bases +16 (half a line): B now reaches line 64,
			// which aliases A's set 0 mid-run and ping-pongs with it.
			{{Base: 16, Stride: 0, Count: 6}, {Base: 2016, Stride: 8, Count: 6, Cont: true}},
		},
		"count": {
			{{Base: 0, Stride: 0, Count: 6}, {Base: 2000, Stride: 8, Count: 6, Cont: true}},
			// Same bases and deltas, longer count: B's footprint wraps
			// modulo the set count onto A's set.
			{{Base: 0, Stride: 0, Count: 60}, {Base: 2000, Stride: 8, Count: 60, Cont: true}},
		},
	}
	for name, groups := range scenarios {
		t.Run(name, func(t *testing.T) {
			want, got := MustHierarchy(cfgs...), MustHierarchy(cfgs...)
			for _, g := range groups {
				ExpandRuns(g, want)
				got.ReplayRuns(g)
			}
			checkSameState(t, name, want.levels, got.levels)
		})
	}
}

// TestRunsMayShareSet pins the footprint conflict test on the case a
// same-index-only comparison would miss: two runs whose line intervals
// overlap modulo the set count only at different lockstep indices.
func TestRunsMayShareSet(t *testing.T) {
	c := mustNew(Config{SizeBytes: 256, LineBytes: 32}) // 8 sets
	levels := []*Cache{c}
	a := Run{Base: 0, Stride: 8, Count: 20}    // lines 0..4
	b := Run{Base: 1184, Stride: 8, Count: 20} // lines 37..41 ≡ 5..1 (mod 8): wraps onto a
	if !runsMayShareSet(levels, &a, &b) {
		t.Error("interval wrap-around conflict not detected")
	}
	d := Run{Base: 1184, Stride: 8, Count: 8} // lines 37..38 ≡ 5..6 (mod 8): disjoint from a
	if runsMayShareSet(levels, &a, &d) {
		t.Error("disjoint footprints flagged as conflicting")
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		hits := make([]int32, 113)
		forEach(len(hits), workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestLineSpan(t *testing.T) {
	cases := []struct {
		addr, stride, lb, remaining, want int64
	}{
		{0, 8, 32, 100, 4},
		{24, 8, 32, 100, 1},
		{24, -8, 32, 100, 4},
		{0, -8, 32, 100, 1},
		{16, 0, 32, 55, 55},
		{0, 8, 32, 2, 2},
		{5, 3, 32, 100, 9},
		{31, 64, 32, 10, 1},
	}
	for _, c := range cases {
		if got := lineSpan(c.addr, c.stride, c.lb, c.remaining); got != c.want {
			t.Errorf("lineSpan(%d,%d,%d,%d) = %d, want %d", c.addr, c.stride, c.lb, c.remaining, got, c.want)
		}
	}
}

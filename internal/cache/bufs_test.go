package cache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// poison overwrites every buffer of a returned holder with a sentinel
// that no simulated state or stream holds, and gives every ring and snapshot entry a unit
// index a phase could look up.
func (b *steadyBufs) poison() {
	const w = int64(0x5eed5eed5eed)
	bad := Run{Base: w, Stride: 24, Count: 3}
	fill(b.curPat[:cap(b.curPat)], bad)
	fill(b.scratch[:cap(b.scratch)], bad)
	for i := range b.anchors {
		b.anchors[i].unit = i
		fill(b.anchors[i].runs[:cap(b.anchors[i].runs)], bad)
	}
	for i := range b.ring {
		b.ring[i].unit, b.ring[i].anchor = i, 0
		fill(b.ring[i].delta, Stats{Loads: 1, LoadMisses: 1})
	}
	for i := range b.snaps {
		b.snaps[i].unit, b.snaps[i].hash = i, 0
		for _, d := range b.snaps[i].data {
			fill(d, w)
		}
		fill(b.snaps[i].cum, Stats{Loads: 1})
	}
	for _, d := range b.encScratch {
		fill(d[:cap(d)], w)
	}
	for _, d := range b.freeWords {
		fill(d[:cap(d)], w)
	}
	for _, d := range b.freeFlags {
		fill(d[:cap(d)], true)
	}
	for _, d := range b.freeStamps {
		fill(d[:cap(d)], uint64(w))
	}
	fill(b.scratchTags[:cap(b.scratchTags)], w)
	fill(b.scratchDirty[:cap(b.scratchDirty)], true)
	fill(b.scratchStamp[:cap(b.scratchStamp)], uint64(w))
	fill(b.wayStamp[:cap(b.wayStamp)], uint64(w))
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// TestSteadyRecycledBuffersConcurrent runs WarmMeasure from four
// goroutines over mixed geometries — the advisor's three L1s over the
// paper's L2, and a small two-level hierarchy — with every released
// buffer overwritten by a sentinel, and compares each run with a raw
// replay. Two engines in it must keep their buffers to themselves: one
// whose caller gives up on it mid-sweep, as the bench watchdog abandons
// a point, and finishes while the others recycle the pool; and one
// whose measured sweep diverges and panics.
func TestSteadyRecycledBuffersConcurrent(t *testing.T) {
	onRelease = (*steadyBufs).poison
	defer func() { onRelease = nil }()
	l2 := UltraSparc2L2()
	geoms := [][]Config{
		{{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 1}, l2},
		{{SizeBytes: 16 << 10, LineBytes: 32, Assoc: 2}, l2},
		{{SizeBytes: 32 << 10, LineBytes: 64, Assoc: 1}, l2},
		{{SizeBytes: 1 << 10, LineBytes: 32}, {SizeBytes: 8 << 10, LineBytes: 64, WriteAllocate: true}},
	}
	// planeSweep translates a unit of two 2 KB runs by 1 KB a unit: it
	// confirms cycles on the small hierarchy and is refused by the
	// coverage rule on the paper's L2; wrapSweep rewrites the whole L2
	// every unit, so it confirms there too.
	planeSweep := func(sink RunSink) {
		emitUnits(sink, 24, 1024, 0, func(k int) []Run {
			o := int64(k) * 1024
			return []Run{{Base: o, Stride: 8, Count: 256}, {Base: o + 1<<20, Stride: 8, Count: 256, Store: true, Cont: true}}
		})
	}
	wrapSweep := func(sink RunSink) {
		cachePhase(sink, 0, 6, 4096)
		deltaPhase(sink, 1<<23, 10, 2048, 1)
	}
	streams := []func(RunSink){deltaSweep, refusedSweep, scopedPhase, planeSweep, wrapSweep}

	check := func(what string, cfgs []Config, sweeps int, sweep func(RunSink)) {
		raw := MustHierarchy(cfgs...)
		WarmMeasure(raw, nil, sweeps, sweep)
		h := MustHierarchy(cfgs...)
		WarmMeasure(h, NewSteady(h), sweeps, sweep)
		assertDeltaEqual(t, what, raw, h)
	}

	release := make(chan struct{})
	var wg, abandoned sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g {
			case 0:
				// An engine its caller abandons: its measured sweep stalls
				// until the others are done, then finishes on its buffers.
				cfgs := geoms[1]
				calls := 0
				stall := func(sink RunSink) {
					if calls++; calls == 2 {
						<-release
					}
					planeSweep(sink)
					wrapSweep(sink)
				}
				abandoned.Add(1)
				go func() {
					defer abandoned.Done()
					check("abandoned", cfgs, 2, stall)
				}()
			case 1:
				// An engine whose measured sweep diverges keeps its holder:
				// it is never returned, so no other engine draws it.
				cfgs := geoms[3]
				h := MustHierarchy(cfgs...)
				sd := NewSteady(h)
				walks := 0
				diverge := func(sink RunSink) {
					planeSweep(sink)
					if walks++; walks > 1 {
						deltaPhase(sink, 1<<25, 3, 64, 0)
					}
				}
				func() {
					defer func() {
						if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "diverged") {
							t.Errorf("the diverging sweep did not panic: %v", p)
						}
					}()
					WarmMeasure(h, sd, 1, diverge)
				}()
				if cap(sd.curPat) == 0 {
					t.Error("the engine that panicked returned its buffers")
				}
			}
			for it := 0; it < 6; it++ {
				cfgs := geoms[(g+it)%len(geoms)]
				sweep := streams[(g*7+it)%len(streams)]
				check(fmt.Sprintf("goroutine %d run %d", g, it), cfgs, 1+it%3, sweep)
			}
		}(g)
	}
	wg.Wait()
	close(release)
	abandoned.Wait()
}

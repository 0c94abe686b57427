package cache

import "runtime"

// steadyBufs holds the steady engine's reusable buffers: the detection
// scratch (the unit pattern, anchors, ring, snapshots, encode and
// translate scratch) and free buffers for the records' pins and end
// states. WarmMeasure draws one from steadyPool for its whole protocol
// and returns it when the protocol ends, so phases, points and
// concurrent requests reuse one another's buffers instead of
// allocating O(slots) per pin, snapshot and end state and O(runs) per
// unit pattern. Every buffer is overwritten in full before it is read:
// patterns and anchors are appended from length zero, encodes write
// every slot, end states copy every slot, and the ring and snapshot
// entries a phase reads are the ones it wrote (steady.go).
//
// A holder's buffers belong to one engine from takeBufs to putBufs.
// Only the engine's own goroutine returns them, on a normal end: an engine
// abandoned by a watchdog keeps its buffers until it finishes, and one
// that panics (a diverged measured sweep) never returns them, so no
// buffer serves two engines at once.
type steadyBufs struct {
	curPat       []Run
	anchors      []steadyAnchor
	ring         []steadyPat
	snaps        []steadySnap
	encScratch   [][]int64
	scratch      []Run
	scratchTags  []int64
	scratchDirty []bool
	scratchStamp []uint64
	wayStamp     []uint64

	freeWords  [][]int64
	freeFlags  [][]bool
	freeStamps [][]uint64
}

// steadyPool holds idle holders, at most one per processor: engines
// that run at once beyond that allocate their own, and an idle holder
// is dropped when the pool is full, so retention stays bounded. Unlike
// a sync.Pool, whose per-processor slots a request on another
// processor cannot see, the channel hands the holder of one request to
// the next wherever it runs.
var steadyPool = make(chan *steadyBufs, runtime.GOMAXPROCS(0))

// Retention bounds for a returned holder, which stay small next to a
// point's own allocations so that pooling does not raise the heap the
// garbage collector paces against: the unit pattern, the replay scratch
// and the anchors together keep at most keptRuns runs (a tiled advisor
// unit at N=128 is about 40K; a tiled RESID tile-row at N=400 about
// 1.2M), and the free lists at most keptFreeBytes (an L2-sized pin is
// 256 KB).
const (
	keptRuns      = 1 << 16
	keptFreeBytes = 4 << 20
)

// onRelease, set only by tests before any engine runs, sees every
// holder putBufs returns.
var onRelease func(*steadyBufs)

// takeBufs hands the engine the buffers of an idle holder, if any.
func (s *Steady) takeBufs() {
	select {
	case b := <-steadyPool:
		s.steadyBufs = *b
	default:
	}
}

// putBufs ends the protocol's use of the engine's buffers: the
// records' pins and end states join the free lists, and the holder
// goes back to the pool. The engine keeps its counters and nothing
// else; used again, it draws or allocates anew.
func (s *Steady) putBufs() {
	for _, r := range s.dl.recs {
		if r == nil {
			continue
		}
		for _, p := range r.pins {
			s.freeWords = append(s.freeWords, p.data...)
		}
		s.freeWords = append(s.freeWords, r.endTags...)
		s.freeFlags = append(s.freeFlags, r.endDirty...)
		for _, st := range r.endStamp {
			if st != nil {
				s.freeStamps = append(s.freeStamps, st)
			}
		}
	}
	s.dl.recs, s.dl.cur = nil, nil
	b := &steadyBufs{}
	*b, s.steadyBufs = s.steadyBufs, steadyBufs{}
	b.trim()
	if onRelease != nil {
		onRelease(b)
	}
	select {
	case steadyPool <- b:
	default:
	}
}

// trim applies the retention bounds.
func (b *steadyBufs) trim() {
	runs := 0
	keepRuns := func(r []Run) []Run {
		if runs += cap(r); runs > keptRuns {
			return nil
		}
		return r
	}
	b.curPat = keepRuns(b.curPat)
	b.scratch = keepRuns(b.scratch)
	for i := range b.anchors {
		b.anchors[i].runs = keepRuns(b.anchors[i].runs)
	}
	bytes := 0
	b.freeWords = keep(b.freeWords, 8, &bytes)
	b.freeStamps = keep(b.freeStamps, 8, &bytes)
	b.freeFlags = keep(b.freeFlags, 1, &bytes)
}

// keep bounds a free list of buffers of size-byte elements to what
// fits in the bytes left of keptFreeBytes.
func keep[T any](list [][]T, size int, bytes *int) [][]T {
	for i, buf := range list {
		if *bytes += cap(buf) * size; *bytes > keptFreeBytes {
			clear(list[i:])
			return list[:i]
		}
	}
	return list
}

// take pops a buffer of length n from a free list, one able to hold n
// elements without wasting more than half of it, or allocates one. Its
// contents are stale; callers overwrite them.
func take[T any](list *[][]T, n int) []T {
	l := *list
	for i := len(l) - 1; i >= 0; i-- {
		if c := cap(l[i]); c >= n && c <= 2*n {
			buf := l[i][:n]
			l[i] = l[len(l)-1]
			l[len(l)-1] = nil
			*list = l[:len(l)-1]
			return buf
		}
	}
	return make([]T, n)
}

package main

import (
	"time"

	"tiling3d/internal/cache"
)

// countSink is a null sink: it simulates nothing and counts the batched
// stream a walker feeds it, so a walk into it costs the walker alone.
type countSink struct {
	runs, accesses int64
}

func (c *countSink) ReplayRuns(runs []cache.Run) {
	c.runs += int64(len(runs))
	for _, r := range runs {
		c.accesses += int64(r.Count)
	}
}

// timedSink forwards every batch to next and adds the time spent inside
// the call to acc.
type timedSink struct {
	next cache.RunSink
	acc  *callTimer
}

func (s timedSink) ReplayRuns(runs []cache.Run) {
	start := time.Now()
	s.next.ReplayRuns(runs)
	s.acc.add(start, time.Now())
}

// timedPlaneSink is timedSink for a sink that also takes plane markers
// (the steady engine): it forwards and times both kinds of call, so the
// walker drives the wrapped engine exactly as it would drive it bare.
type timedPlaneSink struct {
	timedSink
	plane cache.PlaneSink
}

func newTimedPlaneSink(next cache.PlaneSink, acc *callTimer) timedPlaneSink {
	return timedPlaneSink{timedSink{next, acc}, next}
}

func (s timedPlaneSink) PlaneMark(m cache.PlaneMark) {
	start := time.Now()
	s.plane.PlaneMark(m)
	s.acc.add(start, time.Now())
}

var (
	_ cache.RunSink   = (*countSink)(nil)
	_ cache.RunSink   = timedSink{}
	_ cache.PlaneSink = timedPlaneSink{}
)

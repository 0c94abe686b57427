package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call the benchmark made into a module, or the
// aggregate of many small ones. Parent is the enclosing span's ID (0 at
// the root); Run groups the spans of one operation (a sweep point, a
// kernel cell, a request).
//
// An aggregate span stands for Calls separate calls made between Start
// and End (every sink call of one kernel sweep, say): Busy is the time
// spent inside them, which is what the span covers of its parent.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
	Calls  int    `json:"calls,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// covered is the part of its parent's interval the span accounts for.
func (s Span) covered() time.Duration {
	if s.Calls > 0 {
		return time.Duration(s.Busy)
	}
	return s.dur()
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced and traced passes share their code.
type tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// span records a closed span for a call already timed by the caller.
func (t *tracer) span(name string, parent, run int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// aggregate records the calls an accumulator timed as one child span.
func (t *tracer) aggregate(name string, parent, run int, a *callTimer) {
	if t == nil || a.calls == 0 {
		return
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name,
		Start: int64(a.first.Sub(t.t0)), End: int64(a.last.Sub(t.t0)), Busy: int64(a.busy), Calls: a.calls})
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// total sums the time spans of a name cover: their durations, or their
// busy time for aggregates.
func (t *tracer) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.covered()
		}
	}
	return sum
}

// selfTotal sums the self time of every span with the given name: its
// duration minus the part of it its child spans cover.
func (t *tracer) selfTotal(name string) time.Duration {
	children := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.covered()
		}
	}
	var sum time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur() - children[s.ID]
		}
	}
	return sum
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// callTimer accumulates the time spent inside a run of wrapped calls.
type callTimer struct {
	first, last time.Time
	busy        time.Duration
	calls       int
}

func (a *callTimer) add(start, end time.Time) {
	if a.calls == 0 {
		a.first = start
	}
	a.last = end
	a.busy += end.Sub(start)
	a.calls++
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func durationsUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

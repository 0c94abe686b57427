package cache

import "fmt"

// Paranoid cross-checking for the steady-state engine. The Steady
// wrapper is exact by construction, but "exact by construction" is a
// property of the implementation, not of any particular run — and a
// sweep that silently extrapolated wrong numbers for hours is the worst
// failure mode a measurement harness can have. SelfCheck replays the
// same batched trace through a Steady-wrapped hierarchy and, in
// parallel, through a shadow hierarchy simulated in full, then compares
// statistics and final cache state. The sweep engine samples it on a
// subset of points (it costs a full extra simulation), and a mismatch
// feeds the degradation ladder: the point reruns with the steady engine
// disabled.

// SelfCheck tees one run stream into a steady-engine-wrapped hierarchy
// and a full-replay shadow of identical geometry.
type SelfCheck struct {
	// Steady is the engine under test, wrapping the primary hierarchy.
	Steady *Steady
	main   *Hierarchy
	shadow *Hierarchy
}

// NewSelfCheck wraps h in a steady engine plus a cold full-replay shadow
// of the same geometry. The caller must feed every batch through the
// returned SelfCheck (not through h directly) for the comparison to be
// meaningful.
func NewSelfCheck(h *Hierarchy) *SelfCheck {
	cfgs := make([]Config, len(h.levels))
	for i, c := range h.levels {
		cfgs[i] = c.cfg
	}
	return &SelfCheck{
		Steady: NewSteady(h),
		main:   h,
		shadow: MustHierarchy(cfgs...), //lint:allow mustcheck -- geometry copied from a built hierarchy, so valid
	}
}

// ReplayRuns feeds one batch to both engines.
func (s *SelfCheck) ReplayRuns(runs []Run) {
	s.Steady.ReplayRuns(runs)
	s.shadow.ReplayRuns(runs)
}

// PlaneMark forwards a phase marker to the steady engine; the shadow
// replays raw and has no use for markers.
func (s *SelfCheck) PlaneMark(m PlaneMark) {
	s.Steady.PlaneMark(m)
}

// ResetStats zeroes statistics on both engines, preserving cache state —
// the warm-up/measure boundary of an experiment point.
func (s *SelfCheck) ResetStats() {
	s.main.ResetStats()
	s.shadow.ResetStats()
}

// Check compares the steady-engine hierarchy against the full-replay
// shadow: per-level statistics must be identical and every level must
// hold the same lines (same dirty bits, same LRU order). A non-nil error
// means the steady engine extrapolated incorrectly for this stream.
// Call it between phases: the engine commits skips and echoes at their
// phase's last marker.
func (s *SelfCheck) Check() error {
	for i, c := range s.main.levels {
		sh := s.shadow.levels[i]
		if c.stats != sh.stats {
			return fmt.Errorf("steady self-check: level %d stats diverge: steady %+v, full replay %+v",
				i+1, c.stats, sh.stats)
		}
		if !c.StateEqual(sh) {
			return fmt.Errorf("steady self-check: level %d cache state diverges from full replay", i+1)
		}
	}
	return nil
}

var (
	_ RunSink   = (*SelfCheck)(nil)
	_ PlaneSink = (*SelfCheck)(nil)
)

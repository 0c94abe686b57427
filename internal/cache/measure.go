package cache

// WarmMeasure runs the warm-measure protocol of one simulated
// measurement on h: a warm-up sweep whose statistics are dropped, so
// cold misses stay out of the measurement as they would in a long run,
// then sweeps measured sweeps. sweep feeds one pass of the workload's
// batched trace into the sink it is given; every pass must be the same
// stream.
//
// With sd nil every sweep replays straight into h. Otherwise sd must
// wrap h: the warm-up goes through the engine and is traced, and each
// measured sweep is reproduced from the trace by ReplayDeltaSweep,
// walking the workload through the engine only when the replay refuses.
// The engine commits every skip at its own phase's last marker, so at
// each sweep end — where the trace closes and the statistics reset —
// and on return, h's statistics and state equal a raw replay of the
// same sweeps.
func WarmMeasure(h *Hierarchy, sd *Steady, sweeps int, sweep func(RunSink)) {
	if sd == nil {
		sweep(h)
		h.ResetStats()
		for i := 0; i < sweeps; i++ {
			sweep(h)
		}
		return
	}
	sd.DeltaTraceBegin()
	sweep(sd)
	traced := sd.DeltaTraceEnd()
	h.ResetStats()
	for i := 0; i < sweeps; i++ {
		if traced && sd.ReplayDeltaSweep() {
			continue
		}
		sweep(sd)
	}
}

package cache

// WarmMeasure runs the warm-measure protocol of one simulated
// measurement on h: a warm-up sweep whose statistics are dropped, so
// cold misses stay out of the measurement as they would in a long run,
// then sweeps measured sweeps. sweep feeds one pass of the workload's
// batched trace into the sink it is given; every pass must be the same
// stream.
//
// With sd nil every sweep replays straight into h. Otherwise sd must
// wrap h: the warm-up goes through the engine, which records its
// phases, and every measured sweep walks the workload through the
// engine, which serves it from those records (delta.go). The engine
// commits every skip at its own phase's last marker, so at each sweep
// end — where the statistics reset — and on return, h's statistics and
// state equal a raw replay of the same sweeps. The engine's buffers
// come from a pool for the protocol and go back to it on return
// (bufs.go).
func WarmMeasure(h *Hierarchy, sd *Steady, sweeps int, sweep func(RunSink)) {
	if sd == nil {
		sweep(h)
		h.ResetStats()
		for i := 0; i < sweeps; i++ {
			sweep(h)
		}
		return
	}
	sd.takeBufs()
	sd.warmMeasure(sweeps, sweep)
	sd.putBufs()
}

func (sd *Steady) warmMeasure(sweeps int, sweep func(RunSink)) {
	sd.recordSweep(sweep)
	sd.h.ResetStats()
	for i := 0; i < sweeps; i++ {
		if chained := sd.measureSweep(sweep); i > 0 || !chained {
			continue
		}
		// The first measured sweep ended chained: in the warm-up's end
		// state, which is the state it began from. Every later sweep
		// repeats it, and the statistics, reset before it, are its own.
		for _, c := range sd.h.levels {
			one := c.stats
			for j := 1; j < sweeps; j++ {
				c.stats.Add(one)
			}
		}
		sd.dl.diag.Sweeps += uint64(sweeps - 1)
		sd.dl.diag.Instant += uint64(sweeps - 1)
		return
	}
}

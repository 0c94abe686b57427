// Command simulate regenerates the cache miss-rate figures (14, 16, 18
// and 20): it sweeps problem sizes, replays each kernel variant's address
// stream through the simulated 16K L1 / 2M L2 direct-mapped hierarchy,
// and prints the per-size miss-rate series.
//
// Usage:
//
//	simulate -kernel jacobi               # Figure 14
//	simulate -kernel redblack             # Figure 16
//	simulate -kernel resid                # Figure 18
//	simulate -kernel resid -min 400 -max 700   # Figure 20
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"tiling3d/internal/bench"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/profiling"
	"tiling3d/internal/stencil"
)

func main() {
	var (
		kernelName = flag.String("kernel", "jacobi", "kernel: jacobi, redblack or resid")
		nMin       = flag.Int("min", 200, "smallest problem size N")
		nMax       = flag.Int("max", 400, "largest problem size N")
		step       = flag.Int("step", 8, "problem size step")
		k          = flag.Int("k", 30, "third array extent")
		methodList = flag.String("methods", "", "comma-separated methods (default: the paper's)")
		sweeps     = flag.Int("sweeps", 1, "measured sweeps per point")
		svgPath    = flag.String("svg", "", "also write SVG charts to <path>-l1.svg and <path>-l2.svg")
		asJSON     = flag.Bool("json", false, "emit the series as JSON instead of a table")
		workers    = flag.Int("workers", cache.DefaultWorkers(), "simulation worker goroutines (results are identical for any count)")
		steady     = flag.Bool("steady", true, "steady-state engine: plane-cycle detection, and measured sweeps served from the recorded warm-up (identical results; -steady=false simulates every plane of every sweep)")
		checkpoint = flag.String("checkpoint", "", "journal completed simulation points to this file (JSONL)")
		resume     = flag.Bool("resume", false, "with -checkpoint: load already-completed points instead of recomputing them")
		pointTO    = flag.Duration("point-timeout", 0, "per-point watchdog; an expired point retries without the steady engine, then is marked FAIL (0 = off)")
		paranoid   = flag.Int("paranoid", 0, "cross-check every Nth point's steady-engine results against a full replay (0 = off)")
		injectN    = flag.Int("inject-panic", 0, "fault injection: panic every simulation point with this N (demonstrates isolation)")
		injectZZZ  = flag.Duration("inject-sleep", 0, "fault injection: every simulation attempt sleeps this long first, ignoring cancellation (exercises the watchdog and signal paths)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopProf, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	kernel, err := stencil.ParseKernel(*kernelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opt := bench.DefaultOptions()
	opt.NMin, opt.NMax, opt.NStep, opt.K, opt.Sweeps = *nMin, *nMax, *step, *k, *sweeps
	opt.Workers = *workers
	opt.DisableSteady = !*steady
	if *methodList != "" {
		opt.Methods = nil
		for _, name := range strings.Split(*methodList, ",") {
			m, err := core.ParseMethod(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			opt.Methods = append(opt.Methods, m)
		}
	}

	// SIGINT/SIGTERM drain in-flight points, render the partial series,
	// and exit 0; a second signal hard-kills (stop() restores default
	// handling as soon as the context cancels).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	opt.Ctx = ctx
	opt.PointTimeout = *pointTO
	opt.ParanoidEvery = *paranoid
	opt.InjectPanicN = *injectN
	opt.InjectSleep = *injectZZZ
	if err := opt.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(2)
	}
	if *checkpoint != "" {
		j, err := bench.OpenJournal(*checkpoint, opt, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simulate:", err)
			os.Exit(2)
		}
		opt.Journal = j
		if *resume && j.Resumed() > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d completed points loaded from %s\n", j.Resumed(), *checkpoint)
		}
	} else if *resume {
		fmt.Fprintln(os.Stderr, "simulate: -resume requires -checkpoint")
		os.Exit(2)
	}

	sweep, serr := bench.MissSweep(kernel, opt)
	interrupted := errors.Is(serr, context.Canceled)
	if serr != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "simulate:", serr)
		os.Exit(1)
	}
	defer func() {
		if total, live := bench.AbandonedWorkers(); total > 0 {
			fmt.Fprintf(os.Stderr, "warning: the point watchdog abandoned %d simulation goroutine(s); %d still running at exit\n", total, live)
		}
		if opt.Journal != nil {
			if werr := opt.Journal.WriteErr(); werr != nil {
				fmt.Fprintln(os.Stderr, "warning: checkpoint is incomplete:", werr)
			}
		}
		if interrupted {
			if opt.Journal != nil {
				fmt.Fprintf(os.Stderr, "interrupted: %d points checkpointed; resume with -resume -checkpoint %s\n",
					opt.Journal.Len(), *checkpoint)
			} else {
				fmt.Fprintln(os.Stderr, "interrupted: partial results shown; use -checkpoint to make runs resumable")
			}
		}
	}()
	if *asJSON {
		byName := map[string][]bench.MissPoint{}
		for m, s := range sweep {
			byName[m.String()] = s
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Kernel string
			L1, L2 string
			Series map[string][]bench.MissPoint
		}{kernel.String(), opt.L1.String(), opt.L2.String(), byName}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else if err := bench.WriteMissSeries(os.Stdout, kernel, sweep, opt.Methods, opt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *svgPath != "" {
		for level := 1; level <= 2; level++ {
			name := fmt.Sprintf("%s-l%d.svg", *svgPath, level)
			f, err := os.Create(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			chart := bench.MissChart(kernel, sweep, opt.Methods, level)
			if err := chart.WriteSVG(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", name)
		}
	}
}

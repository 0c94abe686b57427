// Command perfbench is the repository's benchmark. It runs one of three
// workloads with one busy worker thread, checks every output against an
// oracle, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as the last line of its output:
//
//	perfbench -workload sim|native|advisor -seed N -seconds S -trace 0|1
//
// run.sh builds it from the checkout's sources and runs it from the
// checkout's root; README.md describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// defaultSeed is the seed the committed advisor response digest was
// recorded with.
const defaultSeed = 1

// redriveBudget bounds how long into the run a traced run keeps
// re-driving operations, so that it ends well within three minutes on a
// slow host; a re-drive cut short says so in its output.
const redriveBudget = 140 * time.Second

var processStart = time.Now()

// outOfTime reports whether a traced run must stop re-driving, noting
// how far it got.
func outOfTime(rep *report, done, total int) bool {
	if time.Since(processStart) < redriveBudget {
		return false
	}
	rep.note("re-drive stopped after %d of %d operations: %v into the run", done, total, redriveBudget)
	return true
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds int
}

// workload is one benchmark input set. measure runs the untraced,
// timed passes and fills the end-to-end metrics; traced runs one
// untraced and one traced pass plus the per-layer analysis.
type workload struct {
	measure func(cfg runConfig, rep *report)
	traced  func(cfg runConfig, rep *report, tr *tracer)
	// tracedThreads is how many threads the traced run keeps busy at
	// once; untraced runs keep exactly one busy.
	tracedThreads int
}

var workloads = map[string]workload{
	"sim":     {measure: measureSim, traced: tracedSim, tracedThreads: 1},
	"native":  {measure: measureNative, traced: tracedNative, tracedThreads: scheduleWorkers},
	"advisor": {measure: measureAdvisor, traced: tracedAdvisor, tracedThreads: 1},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: sim, native or advisor")
	seed := fs.Int64("seed", defaultSeed, "seed of the workload's generated inputs (the advisor request stream)")
	seconds := fs.Int("seconds", 10, "measure for at least this many seconds, in whole passes of the workload")
	trace := fs.Int("trace", 0, "0 prints the end-to-end metrics; 1 runs the traced pass and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want -workload sim|native|advisor, -seconds >= 1 and -trace 0|1\n")
		return 2
	}
	busy := 1
	if *trace == 1 {
		busy = w.tracedThreads
	}
	if n := runtime.NumCPU(); busy > n {
		fmt.Fprintf(stderr, "perfbench: refusing to run %d busy threads on %d CPUs\n", busy, n)
		return 2
	}
	fmt.Fprintln(stdout, "provenance:", provenance(busy))

	cfg := runConfig{seed: *seed, seconds: *seconds}
	rep := &report{values: map[string]float64{}}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		tr := newTracer()
		w.traced(cfg, rep, tr)
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
		} else {
			rep.note("spans: %d written to %s", len(tr.spans), path)
		}
	} else {
		w.measure(cfg, rep)
	}
	res := rep.result(defs, *trace == 0)
	for _, n := range rep.notes {
		fmt.Fprintln(stdout, n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report collects one run's metrics, operation counts and notes.
type report struct {
	values            map[string]float64
	attempted, failed int
	notes             []string
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// tally counts attempted operations and how many of them failed.
func (r *report) tally(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// check counts one oracle-checked operation, failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.note("FAILED: "+format, args...)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the metrics of defs. An end-to-end metric must be
// measured, finite and nonzero; a per-layer metric the workload did not
// measure is zero. A violation marks the run incorrect.
func (r *report) result(defs []metricDef, endToEnd bool) result {
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) || (endToEnd && (!ok || v == 0)) {
			r.note("BUG: metric %s not measured (%v)", d.name, v)
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

// repeat runs pass until the run has measured for the configured number
// of seconds, always at least once. Every pass starts on a collected
// heap, as the first does, so that no pass pays for the garbage of the
// one before it.
func repeat(cfg runConfig, pass func()) {
	start := time.Now()
	for first := true; first || time.Since(start) < time.Duration(cfg.seconds)*time.Second; first = false {
		runtime.GC()
		pass()
	}
}

// stopwatch measures wall and process CPU time (user + system, all
// threads) of a phase.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{wall: time.Now(), cpu: cpuTime()} }

func (s stopwatch) stop() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setProcess records the process-level per-layer metrics: the bytes the
// untraced pass allocated and the peak resident set so far.
func setProcess(rep *report, passAlloc uint64) {
	rep.set("mem.alloc_mb", float64(passAlloc)/(1<<20))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rep.set("mem.peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
}

// totalAlloc returns the bytes allocated since the process started.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// overheadPct compares a traced pass's wall time with the untraced one.
func overheadPct(traced, untraced time.Duration) float64 {
	return 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
}

func kernelName(k stencil.Kernel) string { return strings.ToLower(k.String()) }
func methodName(m core.Method) string    { return strings.ToLower(m.String()) }

// provenance describes the host the numbers were measured on.
func provenance(busy int) string {
	p := struct {
		NProc      int      `json:"nproc"`
		GOMAXPROCS int      `json:"gomaxprocs"`
		Busy       int      `json:"busy_threads"`
		CPU        string   `json:"cpu_model"`
		Caches     []string `json:"caches"`
		Go         string   `json:"go"`
	}{runtime.NumCPU(), runtime.GOMAXPROCS(0), busy, cpuModel(), cacheSizes(), runtime.Version()}
	data, _ := json.Marshal(p) // a struct of strings and ints always encodes
	return string(data)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cacheSizes lists CPU 0's caches as "L<level> <type> <size>".
func cacheSizes() []string {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var out []string
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		out = append(out, fmt.Sprintf("L%s %s %s", read("level"), read("type"), read("size")))
	}
	sort.Strings(out)
	return out
}

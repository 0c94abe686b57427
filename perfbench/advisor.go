package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"strings"
	"time"

	"tiling3d/internal/advisor"
	"tiling3d/internal/bench"
	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/deps"
	"tiling3d/internal/ir"
	"tiling3d/internal/lang"
	"tiling3d/internal/stencil"
	"tiling3d/internal/transform"
)

// The advisor workload: an in-process advisor server with the default
// configuration on a loopback listener, driven in a closed loop by one
// client over one keep-alive connection. The callers it stands for wait
// for each plan before acting, so the next request leaves only when the
// previous answer is in; with one request in flight the worker pool
// never queues.

// goldenAdvisorDigest is the digest of every response to the default
// seed's stream.
//
//go:embed golden/advisor_seed1.digest
var goldenAdvisorDigest string

const (
	// advisorSetupReps is how many times a pass starts the server; only
	// the last one serves. Starting takes well under a millisecond, so
	// setup_s takes the median of many starts.
	advisorSetupReps = 200
	// sampleEvery picks the simulated responses a pass recomputes with
	// bench.SimulateStats: every sampleEvery-th new simulated request.
	sampleEvery = 20
)

type advisorServer struct {
	srv  *advisor.Server
	hs   *http.Server
	url  string
	done chan error
}

// startAdvisor builds the server and starts serving on a loopback port.
func startAdvisor() (*advisorServer, error) {
	srv := advisor.NewServer(advisor.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("advisor listener: %w", err)
	}
	s := &advisorServer{srv: srv, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String() + "/v1/plan", done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serving goroutine.
func (s *advisorServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if derr := s.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// startTimed starts the server advisorSetupReps times, recording each
// start's duration as a setup_s sample, and returns the last one running.
func startTimed(samp samples) (*advisorServer, error) {
	for i := 1; ; i++ {
		start := time.Now()
		s, err := startAdvisor()
		samp.add("setup_s", time.Since(start).Seconds())
		if err != nil || i == advisorSetupReps {
			return s, err
		}
		if err := s.stop(); err != nil {
			return nil, fmt.Errorf("advisor shutdown: %w", err)
		}
	}
}

type reply struct {
	status  int
	latency time.Duration
	resp    advisor.PlanResponse
	err     error
}

// drive sends the stream in a closed loop over one keep-alive
// connection, with a span per request when tr is non-nil, and returns
// the replies and the loop's wall and CPU time.
func drive(url string, bodies [][]byte, tr *tracer, parent int) ([]reply, time.Duration, time.Duration) {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	replies := make([]reply, len(bodies))
	sw := startWatch()
	for i, body := range bodies {
		r := &replies[i]
		start := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			r.status = resp.StatusCode
		}
		end := time.Now()
		tr.span("advisor.request", parent, i+1, start, end)
		r.latency = end.Sub(start)
		if err == nil && r.status == http.StatusOK {
			err = json.Unmarshal(data, &r.resp)
		}
		r.err = err
	}
	wall, cpu := sw.stop()
	return replies, wall, cpu
}

// advisorTally is what the oracles found in one pass's replies.
type advisorTally struct {
	shed, errors, degraded int
}

// checkAdvisor counts every request against its oracles: a 200 answer,
// not degraded, cached exactly when it repeats an earlier request,
// simulated when it names a kernel; a sample of simulated answers equal
// to bench.SimulateStats; and, for the default seed, the digest of
// every answer equal to the recorded one.
func checkAdvisor(rep *report, reqs []planReq, replies []reply, seed int64) advisorTally {
	var t advisorTally
	bad, sims := 0, 0
	for i, r := range replies {
		q := reqs[i]
		why := ""
		switch {
		case r.status == http.StatusTooManyRequests:
			t.shed++
			why = "shed (429)"
		case r.err != nil || r.status != http.StatusOK:
			t.errors++
			why = fmt.Sprintf("status %d, %v", r.status, r.err)
		case r.resp.Degraded:
			t.degraded++
			why = "degraded: " + r.resp.DegradedReason
		case r.resp.Cached != (q.class == classRepeat):
			why = fmt.Sprintf("cached=%v", r.resp.Cached)
		case q.class == classSim && (r.resp.Miss == nil || r.resp.Miss.Source != "simulated"):
			why = "not simulated"
		case q.class == classSim:
			if sims%sampleEvery == 0 && !sameAsSimulateStats(q.body, r.resp.Miss) {
				why = "miss counts differ from bench.SimulateStats"
			}
			sims++
		}
		if why != "" {
			bad++
			rep.note("FAILED: request %d: %s", i, why)
		}
	}
	rep.tally(len(replies), bad)
	if seed == defaultSeed {
		got := digest(replies)
		rep.check(got == strings.TrimSpace(goldenAdvisorDigest), "response digest %s, recorded %s", got, goldenAdvisorDigest)
	}
	return t
}

// sameAsSimulateStats recomputes a simulated answer directly.
func sameAsSimulateStats(req advisor.PlanRequest, miss *advisor.MissPrediction) bool {
	k, err := stencil.ParseKernel(req.Kernel)
	if err != nil {
		return false
	}
	m, err := core.ParseMethod(req.Method)
	if err != nil {
		return false
	}
	opt := bench.Options{L1: cacheConfig(req.L1), L2: cacheConfig(*req.L2), K: req.K, NMin: req.N, NMax: req.N,
		NStep: 1, Methods: []core.Method{m}, Coeffs: stencil.DefaultCoeffs(), Sweeps: 1, Workers: 1}
	res := bench.SimulateStats(k, m, req.N, opt)
	return miss.L1 != nil && miss.L2 != nil && miss.Flops == res.Flops &&
		miss.L1.Accesses == res.L1.Accesses() && miss.L1.Misses == res.L1.Misses() &&
		miss.L2.Accesses == res.L2.Accesses() && miss.L2.Misses == res.L2.Misses()
}

func cacheConfig(g advisor.Geometry) cache.Config {
	return cache.Config{SizeBytes: g.SizeBytes, LineBytes: g.LineBytes, Assoc: g.Assoc,
		WriteAllocate: g.WriteAllocate, NextLinePrefetch: g.NextLinePrefetch}
}

// digest hashes what every answer says: status, plan, verdict, miss
// counts and the cached flag.
func digest(replies []reply) string {
	h := sha256.New()
	for i, r := range replies {
		p := r.resp
		fmt.Fprintf(h, "%d %d %+v %q cached=%v", i, r.status, p.Plan, p.Verdict, p.Cached)
		if m := p.Miss; m != nil {
			fmt.Fprintf(h, " %s flops=%d", m.Source, m.Flops)
			for _, l := range []*advisor.LevelMiss{m.L1, m.L2} {
				if l != nil {
					fmt.Fprintf(h, " %d/%d", l.Accesses, l.Misses)
				}
			}
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func marshalBodies(reqs []planReq) ([][]byte, error) {
	bodies := make([][]byte, len(reqs))
	for i, q := range reqs {
		b, err := json.Marshal(q.body)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
		bodies[i] = b
	}
	return bodies, nil
}

// advisorPass is one pass: a fresh server (empty result cache) serving
// the whole stream.
type advisorPass struct {
	replies   []reply
	wall, cpu time.Duration
	tally     advisorTally
}

func runAdvisorPass(rep *report, cfg runConfig, reqs []planReq, bodies [][]byte, samp samples, tr *tracer) (advisorPass, bool) {
	srv, err := startTimed(samp)
	if err != nil {
		rep.check(false, "advisor set-up: %v", err)
		return advisorPass{}, false
	}
	root := tr.begin("advisor.pass", 0, 0)
	var p advisorPass
	p.replies, p.wall, p.cpu = drive(srv.url, bodies, tr, root)
	tr.end(root)
	rep.check(srv.stop() == nil, "advisor shutdown")
	p.tally = checkAdvisor(rep, reqs, p.replies, cfg.seed)
	return p, true
}

func measureAdvisor(cfg runConfig, rep *report) {
	reqs := genRequests(cfg.seed)
	bodies, err := marshalBodies(reqs)
	if err != nil {
		rep.check(false, "advisor requests: %v", err)
		return
	}
	s := samples{}
	repeat(cfg, func() {
		p, ok := runAdvisorPass(rep, cfg, reqs, bodies, s, nil)
		if !ok {
			return
		}
		lat := make([]float64, len(p.replies))
		flops := map[string]float64{}
		busy := map[string]time.Duration{}
		var resid []float64
		for i, r := range p.replies {
			lat[i] = ms(r.latency)
			if q := reqs[i]; q.class == classSim && r.resp.Miss != nil {
				// Simulated flops: the warm-up and the measured sweep.
				flops[q.body.Kernel] += 2 * float64(r.resp.Miss.Flops)
				busy[q.body.Kernel] += r.latency
				if q.body.Kernel == kernelName(stencil.Resid) {
					resid = append(resid, ms(r.latency))
				}
			}
		}
		s.addPass(p.wall, p.cpu, lat)
		s.add("mgrid_ms", median(resid))
		for k, f := range flops {
			s.add("mflops_"+k, f/busy[k].Seconds()/1e6)
		}
	})
	s.report(rep)
	rep.note("advisor: %d passes of %d requests (closed loop, 1 client); mflops are simulated MFlop per second of request latency; mgrid_ms is the median simulated RESID request",
		len(s["wall_s"]), len(reqs))
}

func tracedAdvisor(cfg runConfig, rep *report, tr *tracer) {
	reqs := genRequests(cfg.seed)
	bodies, err := marshalBodies(reqs)
	if err != nil {
		rep.check(false, "advisor requests: %v", err)
		return
	}
	alloc := totalAlloc()
	base, ok := runAdvisorPass(rep, cfg, reqs, bodies, samples{}, nil)
	passAlloc := totalAlloc() - alloc
	if !ok {
		return
	}
	traced, ok := runAdvisorPass(rep, cfg, reqs, bodies, samples{}, tr)
	if !ok {
		return
	}
	rep.set("trace.overhead_pct", overheadPct(traced.wall, base.wall))

	var hit, static []float64
	sim := map[string][]float64{}
	cached := 0
	for i, r := range base.replies {
		switch reqs[i].class {
		case classRepeat:
			hit = append(hit, ms(r.latency))
		case classListing:
			static = append(static, ms(r.latency))
		case classSim:
			sim[reqs[i].geo] = append(sim[reqs[i].geo], ms(r.latency))
		}
		if r.resp.Cached {
			cached++
		}
	}
	rep.set("advisor.hit_p50_ms", median(hit))
	rep.set("advisor.static_p50_ms", median(static))
	for _, g := range advisorGeometries {
		rep.set("advisor.sim_p50_ms."+g.name, median(sim[g.name]))
	}
	rep.set("advisor.cache_hit_ratio", ratio(float64(cached), float64(len(reqs))))
	rep.set("advisor.degraded", float64(base.tally.degraded))
	rep.set("advisor.shed", float64(base.tally.shed))
	rep.set("advisor.errors", float64(base.tally.errors))
	redriveAdvisor(rep, tr, reqs, base.replies, traced.replies)
	setProcess(rep, passAlloc)
}

// redriveAdvisor answers every new request again through the backend's
// public calls, without HTTP, the cache or the pool, requiring the same
// answer the server gave, and times the static pipeline's stages.
func redriveAdvisor(rep *report, tr *tracer, reqs []planReq, base, traced []reply) {
	b := advisor.NewBackend(10*time.Second, 2, 50*time.Millisecond) // the server's defaults
	backend := make([]time.Duration, len(reqs))
	for i, q := range reqs {
		if outOfTime(rep, i, len(reqs)) {
			break
		}
		if q.class == classRepeat {
			continue
		}
		run := i + 1
		root := tr.begin("advisor.redrive", 0, run)
		start := time.Now()
		resp, err := b.Static(q.body)
		end := time.Now()
		tr.span("advisor.Backend.Static", root, run, start, end)
		backend[i] = end.Sub(start)
		ok := err == nil && resp.Plan == base[i].resp.Plan && resp.Verdict == base[i].resp.Verdict
		if q.class == classSim {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			start := time.Now()
			miss, err := b.Simulate(ctx, q.body)
			end := time.Now()
			cancel()
			tr.span("advisor.Backend.Simulate", root, run, start, end)
			backend[i] += end.Sub(start)
			ok = ok && err == nil && reflect.DeepEqual(miss, base[i].resp.Miss)
		}
		if err == nil {
			staticStages(tr, root, run, q.body, resp.Plan)
		}
		tr.end(root)
		rep.check(ok, "request %d: the backend's answer differs from the server's", i)
	}
	self := make([]float64, len(reqs))
	for i := range reqs {
		self[i] = ms(traced[i].latency - backend[i])
	}
	rep.set("advisor.http_self_ms", median(self))
	rep.set("advisor.backend.static_ms", median(durationsMs(tr.durations("advisor.Backend.Static"))))
	rep.set("advisor.backend.simulate_ms", median(durationsMs(tr.durations("advisor.Backend.Simulate"))))
	for _, s := range []struct{ metric, span string }{
		{"lang.parse_us", "lang.ParseProgramNamed"},
		{"deps.analyze_us", "deps.Dependences"},
		{"core.select_us", "core.SelectChecked"},
		{"transform.apply_us", "transform.ApplyPlan"},
		{"deps.certify_us", "deps.Certify"},
		{"analytic.predict_us", "advisor.Analytic"},
	} {
		rep.set(s.metric, median(durationsUs(tr.durations(s.span))))
	}
	rep.set("core.selects", float64(len(tr.durations("core.SelectChecked"))))
}

// staticStages times the static pipeline one stage at a time, in the
// order Backend.Static runs it: parse a listing, analyse every nest's
// dependences, select, transform and certify the first nest's plan,
// and predict misses with the analytic model.
func staticStages(tr *tracer, parent, run int, req advisor.PlanRequest, plan advisor.PlanInfo) {
	nests, ok := requestNests(tr, parent, run, req)
	if !ok {
		return
	}
	method, err := core.ParseMethod(req.Method)
	if err != nil {
		return
	}
	for i, nest := range nests {
		id := tr.begin("deps.Dependences", parent, run)
		tab, err := deps.Dependences(nest)
		tr.end(id)
		if err != nil || i > 0 {
			continue
		}
		st, err := ir.Analyze(nest)
		if err != nil {
			continue
		}
		id = tr.begin("core.SelectChecked", parent, run)
		p, err := core.SelectChecked(method, cacheConfig(req.L1).Elems(8), req.N, req.N, st)
		tr.end(id)
		if err != nil || tab.HasUnknown() || len(tab.Carried()) > 0 {
			continue
		}
		id = tr.begin("transform.ApplyPlan", parent, run)
		after, err := transform.ApplyPlan(nest, p)
		tr.end(id)
		if err != nil {
			continue
		}
		id = tr.begin("deps.Certify", parent, run)
		_ = deps.Certify(nest, after) // timed only; the verdict was compared above
		tr.end(id)
	}
	id := tr.begin("advisor.Analytic", parent, run)
	advisor.Analytic(req, plan)
	tr.end(id)
}

// requestNests builds a request's loop nests: a kernel's built-in nest,
// or a listing parsed under a span.
func requestNests(tr *tracer, parent, run int, req advisor.PlanRequest) ([]*ir.Nest, bool) {
	switch req.Kernel {
	case "":
	case kernelName(stencil.Jacobi):
		return []*ir.Nest{ir.JacobiNest(req.N, req.K)}, true
	case kernelName(stencil.RedBlack):
		return []*ir.Nest{ir.RedBlackNest(req.N, req.K)}, true
	case kernelName(stencil.Resid):
		return []*ir.Nest{ir.ResidNest(req.N, req.K)}, true
	default:
		return nil, false
	}
	params := map[string]int{"N": req.N, "M": req.N, "TSTEPS": 1}
	for name, v := range req.Params {
		params[name] = v
	}
	id := tr.begin("lang.ParseProgramNamed", parent, run)
	prog, err := lang.ParseProgramNamed("request.st", req.Program, params)
	tr.end(id)
	if err != nil {
		return nil, false
	}
	return prog.Nests, true
}

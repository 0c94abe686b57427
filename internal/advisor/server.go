package advisor

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"tiling3d/internal/bench"
)

// Config wires a Server. Zero values get sensible defaults.
type Config struct {
	// Workers and Queue bound the simulation pool: Workers concurrent
	// computations, Queue callers waiting, everyone else refused with
	// 429 (defaults 4 and 8).
	Workers int
	Queue   int
	// CacheTTL and CacheMax shape the result cache (defaults 10m, 1024).
	CacheTTL time.Duration
	CacheMax int
	// Deadline is the per-request budget for POST /v1/plan; it
	// propagates as context cancellation into the simulation (default
	// 30s).
	Deadline time.Duration
	// PointTimeout bounds one simulation attempt inside the backend
	// (default 10s).
	PointTimeout time.Duration
	// Retries and RetryBase set the backend's transient-failure retry
	// policy (defaults 2 and 50ms).
	Retries   int
	RetryBase time.Duration
	// BreakerFails and BreakerCooldown shape the circuit breaker
	// (defaults 3 and 15s).
	BreakerFails    int
	BreakerCooldown time.Duration
	// JournalDir is where sweep jobs persist; empty disables /v1/sweep.
	JournalDir string
	// JobWorkers is the per-job simulation parallelism (default 1).
	JobWorkers int
	// Faults is the fault-injection script; nil injects nothing.
	Faults *FaultScript
	// Log receives request-level events; nil means log.Default.
	Log *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Queue < 0 {
		c.Queue = 0
	} else if c.Queue == 0 {
		c.Queue = 8
	}
	if c.CacheTTL <= 0 {
		c.CacheTTL = 10 * time.Minute
	}
	if c.CacheMax <= 0 {
		c.CacheMax = 1024
	}
	if c.Deadline <= 0 {
		c.Deadline = 30 * time.Second
	}
	if c.PointTimeout <= 0 {
		c.PointTimeout = 10 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.BreakerFails <= 0 {
		c.BreakerFails = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 15 * time.Second
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 1
	}
	if c.Log == nil {
		c.Log = log.Default()
	}
	return c
}

// Server is the advisor HTTP service. Build with NewServer, mount
// Handler, drain with Drain.
type Server struct {
	cfg     Config
	cache   *ResultCache
	pool    *Pool
	breaker *Breaker
	backend *Backend
	jobs    *JobManager
	mux     *http.ServeMux
}

// NewServer wires the service from the config.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	backend := NewBackend(cfg.PointTimeout, cfg.Retries, cfg.RetryBase)
	backend.Faults = cfg.Faults
	s := &Server{
		cfg:     cfg,
		cache:   NewResultCache(cfg.CacheTTL, cfg.CacheMax),
		pool:    NewPool(cfg.Workers, cfg.Queue),
		breaker: NewBreaker(cfg.BreakerFails, cfg.BreakerCooldown),
		backend: backend,
	}
	if cfg.JournalDir != "" {
		s.jobs = NewJobManager(cfg.JournalDir, cfg.JobWorkers, cfg.Faults)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/plan", s.handlePlan)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Breaker exposes the circuit breaker for tests and the health handler.
func (s *Server) Breaker() *Breaker { return s.breaker }

// Jobs exposes the job manager (nil when no journal directory is
// configured).
func (s *Server) Jobs() *JobManager { return s.jobs }

// Resume restarts unfinished sweep jobs from the journal directory;
// call once at startup.
func (s *Server) Resume() ([]string, error) {
	if s.jobs == nil {
		return nil, nil
	}
	return s.jobs.Resume()
}

// Drain stops admitting work and waits for in-flight requests and jobs
// to checkpoint, bounded by ctx — the SIGTERM half of graceful
// shutdown (http.Server.Shutdown is the other half).
func (s *Server) Drain(ctx context.Context) error {
	perr := s.pool.Drain(ctx)
	if s.jobs != nil {
		if jerr := s.jobs.Drain(ctx); perr == nil {
			perr = jerr
		}
	}
	return perr
}

// maxBodyBytes bounds request bodies well above any legitimate plan
// request (which is dominated by maxProgramLen).
const maxBodyBytes = 256 << 10

// handlePlan is POST /v1/plan: validate, consult the cache, and compute
// under the pool, the breaker, and the request deadline.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Deadline)
	defer cancel()

	resp, shared, err := s.cache.Do(ctx, req.Key(), func() (*PlanResponse, error) {
		return s.compute(ctx, req)
	})
	if err != nil {
		s.writePlanError(w, err)
		return
	}
	resp.Cached = shared
	writeJSON(w, http.StatusOK, resp)
}

// compute is one uncached plan computation: static analysis inline,
// then — when the request wants simulation and the breaker allows it —
// the simulation backend under the worker pool. Every failure past
// validation degrades to the analytic model rather than erroring: the
// service's whole contract is that /v1/plan answers.
func (s *Server) compute(ctx context.Context, req PlanRequest) (*PlanResponse, error) {
	resp, err := s.backend.Static(req)
	if err != nil {
		return nil, err
	}
	if !req.wantSimulation() {
		resp.Miss = Analytic(req, resp.Plan) //lint:allow degrademark -- listings cannot simulate: analytic is the requested source here, not a fallback
		return resp, nil
	}
	if !s.breaker.Allow() {
		s.degrade(resp, req, "circuit breaker open; serving analytic model")
		return resp, nil
	}
	var miss *MissPrediction
	err = s.pool.Do(ctx, func() error {
		var serr error
		miss, serr = s.backend.Simulate(ctx, req)
		return serr
	})
	switch {
	case err == nil:
		s.breaker.Record(true)
		resp.Miss = miss
		return resp, nil
	case errors.Is(err, ErrSaturated) || errors.Is(err, ErrDraining):
		// Admission refusals say nothing about the backend's health: the
		// caller sheds the request without charging the breaker, and a
		// half-open probe claimed by Allow is released for the next
		// request instead of wedging the breaker mid-probe.
		s.breaker.Cancel()
		return nil, err
	case isBadRequest(err):
		// The request itself cannot simulate (e.g. sweep preconditions);
		// deterministic, so the breaker is not charged (and a claimed
		// probe is released — a bad request proves nothing). Serve
		// analytic.
		s.breaker.Cancel()
		s.degrade(resp, req, fmt.Sprintf("request cannot simulate: %v", err))
		return resp, nil
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), ctx.Err() != nil:
		// The request's own deadline or cancellation — whether it expired
		// waiting for a pool slot or mid-simulation — says nothing about
		// backend health either: a storm of short client deadlines must
		// not trip the breaker while the backend is fine. Degrade on a
		// deadline (the caller may still want an answer); a cancelled
		// request gets its error back.
		s.breaker.Cancel()
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.degrade(resp, req, fmt.Sprintf("simulation aborted by request deadline: %v", err))
			return resp, nil
		}
		return nil, err
	default:
		s.breaker.Record(false)
		s.cfg.Log.Printf("advisor: simulation degraded for %s: %v", resp.Key, err)
		s.degrade(resp, req, fmt.Sprintf("simulation failed: %v", err))
		return resp, nil
	}
}

func (s *Server) degrade(resp *PlanResponse, req PlanRequest, why string) {
	resp.Degraded = true
	resp.DegradedReason = why
	resp.Miss = Analytic(req, resp.Plan)
}

// writePlanError maps a plan computation failure to a status code.
func (s *Server) writePlanError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.Deadline)))
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusGatewayTimeout, "request deadline exceeded")
	case errors.Is(err, context.Canceled):
		httpError(w, http.StatusServiceUnavailable, "request cancelled")
	case isBadRequest(err):
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

// handleSweep is POST /v1/sweep: submit (or join) a resumable job.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		httpError(w, http.StatusNotImplemented, "sweep jobs disabled: no journal directory configured")
		return
	}
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	st, err := s.jobs.Submit(req)
	if err != nil {
		if isBadRequest(err) {
			httpError(w, http.StatusBadRequest, err.Error())
		} else {
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	code := http.StatusAccepted
	if st.State == JobDone {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if s.jobs == nil {
		httpError(w, http.StatusNotImplemented, "sweep jobs disabled: no journal directory configured")
		return
	}
	st, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// healthView is GET /healthz's body.
type healthView struct {
	Breaker          string     `json:"breaker"`
	Cache            CacheStats `json:"cache"`
	PoolRunning      int        `json:"pool_running"`
	PoolWaiting      int        `json:"pool_waiting"`
	AbandonedWorkers int64      `json:"abandoned_workers"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	running, waiting := s.pool.Load()
	_, live := bench.AbandonedWorkers()
	writeJSON(w, http.StatusOK, healthView{
		Breaker:          s.breaker.State().String(),
		Cache:            s.cache.Stats(),
		PoolRunning:      running,
		PoolWaiting:      waiting,
		AbandonedWorkers: live,
	})
}

// decodeBody parses a bounded JSON body, answering 400 on any failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

func isBadRequest(err error) bool {
	var bad badRequestError
	return errors.As(err, &bad)
}

// retryAfterSeconds hints how long a shed client should wait: one
// request deadline, rounded up, at least a second.
func retryAfterSeconds(deadline time.Duration) int {
	secs := int((deadline + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}

// writeJSON marshals v before committing the status line, so a value
// that cannot be encoded answers 500 with an error body instead of a
// 200 with an empty one.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		code = http.StatusInternalServerError
		data = mustMarshal(errorBody{Error: "advisor: encode response: " + err.Error()})
	} else {
		data = append(data, '\n')
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// A write failure here means the client went away mid-write;
	// nothing useful is left to do with the connection.
	_, _ = w.Write(data)
}

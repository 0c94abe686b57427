// Package advisor is the fault-tolerant tiling-advisor service: a
// long-running HTTP front end over the selection methods, the dependence
// analyzer, and the simulation engine, built so that millions of "how do
// I tile this loop?" queries do not each pay for a full simulation. A
// request hashes into a content-addressed TTL result cache with
// singleflight dedup; misses go through a bounded worker pool with
// admission control; a circuit breaker wraps the simulation backend and
// degrades the service to the analytic cost model instead of erroring;
// and long sweep jobs persist through the bench checkpoint journal so a
// killed server resumes them on restart. A deterministic fault-injection
// layer drives the acceptance tests for every one of those paths.
package advisor

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"tiling3d/internal/cache"
	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// Request limits. The service simulates what clients describe, so the
// description must be bounded before it allocates anything: an absurd
// geometry must come back 400, never OOM the server (the fuzzer holds
// the service to that).
const (
	maxCacheBytes  = 1 << 28 // 256 MiB simulated cache
	maxLineBytes   = 1 << 12
	maxProblemN    = 2048
	maxProblemK    = 512
	maxSweeps      = 16
	maxProgramLen  = 64 << 10
	maxParams      = 16
	maxParamValue  = 1 << 20
	maxSweepPoints = 4096 // methods x sizes of one sweep job
)

// Geometry is the wire form of a simulated cache level.
type Geometry struct {
	SizeBytes        int  `json:"size_bytes"`
	LineBytes        int  `json:"line_bytes"`
	Assoc            int  `json:"assoc,omitempty"`
	WriteAllocate    bool `json:"write_allocate,omitempty"`
	NextLinePrefetch bool `json:"next_line_prefetch,omitempty"`
}

func (g Geometry) config() cache.Config {
	return cache.Config{
		SizeBytes:        g.SizeBytes,
		LineBytes:        g.LineBytes,
		Assoc:            g.Assoc,
		WriteAllocate:    g.WriteAllocate,
		NextLinePrefetch: g.NextLinePrefetch,
	}
}

func (g Geometry) validate(name string) error {
	if g.SizeBytes > maxCacheBytes {
		return fmt.Errorf("%s: size_bytes %d exceeds the service limit %d", name, g.SizeBytes, maxCacheBytes)
	}
	if g.LineBytes > maxLineBytes {
		return fmt.Errorf("%s: line_bytes %d exceeds the service limit %d", name, g.LineBytes, maxLineBytes)
	}
	if err := g.config().Validate(); err != nil {
		return fmt.Errorf("%s: %v", name, err)
	}
	return nil
}

// PlanRequest is the body of POST /v1/plan: one stencil program (a
// built-in kernel name or a listing), one cache geometry, one selection
// method. Exactly one of Kernel and Program must be set.
type PlanRequest struct {
	// Kernel names a built-in kernel: jacobi, redblack or resid.
	Kernel string `json:"kernel,omitempty"`
	// Program is a stencil listing in the repository's input language;
	// Params supplies its size parameters. Listings are analyzed and
	// planned but not simulated, so their miss predictions are always
	// analytic.
	Program string         `json:"program,omitempty"`
	Params  map[string]int `json:"params,omitempty"`
	// N is the problem size the plan targets; K the third array extent
	// (default 30, the paper's).
	N int `json:"n"`
	K int `json:"k,omitempty"`
	// L1 is the geometry the selection targets; L2 optionally extends
	// the simulated hierarchy.
	L1 Geometry  `json:"l1"`
	L2 *Geometry `json:"l2,omitempty"`
	// Method is the selection method (Orig, Euc3D, GcdPad, Pad, ...).
	Method string `json:"method"`
	// Sweeps is the number of measured kernel sweeps per simulation
	// (default 1).
	Sweeps int `json:"sweeps,omitempty"`
	// Simulate, when false, skips the simulation backend and predicts
	// misses analytically. Defaults to true for built-in kernels.
	Simulate *bool `json:"simulate,omitempty"`
}

// normalize fills defaults and canonicalizes names so that two requests
// meaning the same thing hash to the same cache key. It must be called
// after Validate.
func (r PlanRequest) normalize() PlanRequest {
	if r.K == 0 {
		r.K = 30
	}
	if r.Sweeps == 0 {
		r.Sweeps = 1
	}
	if r.Kernel != "" {
		if k, err := stencil.ParseKernel(r.Kernel); err == nil {
			r.Kernel = k.String()
		}
	}
	if m, err := core.ParseMethod(r.Method); err == nil {
		r.Method = m.String()
	}
	sim := r.wantSimulation()
	r.Simulate = &sim
	return r
}

// wantSimulation reports whether the request asks for simulated miss
// counts: built-in kernels default to yes, listings cannot simulate.
func (r PlanRequest) wantSimulation() bool {
	if r.Kernel == "" {
		return false
	}
	return r.Simulate == nil || *r.Simulate
}

// Key returns the content address of the request: a SHA-256 over its
// normalized JSON form. Two requests that normalize identically share a
// cache entry; execution knobs that cannot change the answer are not
// part of the request, so they cannot split the key space.
func (r PlanRequest) Key() string {
	data, err := json.Marshal(r.normalize())
	if err != nil {
		// Marshal of a plain struct with string/int/bool fields cannot
		// fail; a change that makes it possible must be caught loudly.
		panic(fmt.Sprintf("advisor: marshal of normalized request failed: %v", err))
	}
	sum := sha256.Sum256(data)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// Validate bounds every request field before the service allocates
// anything on its behalf. Violations are client errors (HTTP 400).
func (r PlanRequest) Validate() error {
	switch {
	case r.Kernel == "" && r.Program == "":
		return fmt.Errorf("one of kernel or program is required")
	case r.Kernel != "" && r.Program != "":
		return fmt.Errorf("kernel and program are mutually exclusive")
	}
	if r.Kernel != "" {
		if _, err := stencil.ParseKernel(r.Kernel); err != nil {
			return err
		}
	}
	if len(r.Program) > maxProgramLen {
		return fmt.Errorf("program exceeds %d bytes", maxProgramLen)
	}
	if len(r.Params) > maxParams {
		return fmt.Errorf("more than %d params", maxParams)
	}
	for name, v := range r.Params {
		if v < 1 || v > maxParamValue {
			return fmt.Errorf("param %s=%d out of range [1, %d]", name, v, maxParamValue)
		}
	}
	if r.N < 3 || r.N > maxProblemN {
		return fmt.Errorf("n %d out of range [3, %d]", r.N, maxProblemN)
	}
	if k := r.K; k != 0 && (k < 1 || k > maxProblemK) {
		return fmt.Errorf("k %d out of range [1, %d]", r.K, maxProblemK)
	}
	if err := r.L1.validate("l1"); err != nil {
		return err
	}
	if r.L2 != nil {
		if err := r.L2.validate("l2"); err != nil {
			return err
		}
	}
	if _, err := core.ParseMethod(r.Method); err != nil {
		return err
	}
	if r.Sweeps < 0 || r.Sweeps > maxSweeps {
		return fmt.Errorf("sweeps %d out of range [0, %d]", r.Sweeps, maxSweeps)
	}
	return nil
}

// PlanInfo is the wire form of a selection plan.
type PlanInfo struct {
	TI    int     `json:"ti"`
	TJ    int     `json:"tj"`
	DI    int     `json:"di"`
	DJ    int     `json:"dj"`
	Tiled bool    `json:"tiled"`
	Cost  float64 `json:"cost"`
}

// MarshalJSON encodes a non-finite Cost — an untiled plan costs +Inf —
// as null, which JSON numbers cannot express; every other field, and a
// finite Cost, encode exactly as the plain struct does.
func (p PlanInfo) MarshalJSON() ([]byte, error) {
	type plain PlanInfo
	if !math.IsInf(p.Cost, 0) && !math.IsNaN(p.Cost) {
		return json.Marshal(plain(p))
	}
	return json.Marshal(struct {
		plain
		Cost *float64 `json:"cost"`
	}{plain: plain(p)})
}

func planInfo(p core.Plan) PlanInfo {
	return PlanInfo{TI: p.Tile.TI, TJ: p.Tile.TJ, DI: p.DI, DJ: p.DJ, Tiled: p.Tiled, Cost: p.Cost}
}

// LevelMiss is one cache level's predicted behavior. Simulated
// predictions carry exact access and miss counts; analytic ones carry
// only the first-order rate.
type LevelMiss struct {
	Accesses uint64  `json:"accesses,omitempty"`
	Misses   uint64  `json:"misses,omitempty"`
	Rate     float64 `json:"rate"`
}

// MissPrediction is the predicted cache behavior of the planned loop.
type MissPrediction struct {
	// Source is "simulated" (exact, from the trace engine) or
	// "analytic" (first-order capacity model).
	Source string     `json:"source"`
	L1     *LevelMiss `json:"l1,omitempty"`
	L2     *LevelMiss `json:"l2,omitempty"`
	Flops  int64      `json:"flops,omitempty"`
}

// PlanResponse is the body of a successful POST /v1/plan.
type PlanResponse struct {
	Key         string          `json:"key"`
	Kernel      string          `json:"kernel,omitempty"`
	Method      string          `json:"method"`
	N           int             `json:"n"`
	Plan        PlanInfo        `json:"plan"`
	Certified   bool            `json:"certified"`
	Verdict     string          `json:"verdict"`
	Dependences []string        `json:"dependences"`
	Warnings    []string        `json:"warnings,omitempty"`
	Miss        *MissPrediction `json:"miss,omitempty"`
	// Degraded marks a response whose simulation was replaced by the
	// analytic model because the backend failed or the circuit breaker
	// is open; DegradedReason says why. A request that never asked for
	// simulation is not degraded.
	Degraded       bool   `json:"degraded"`
	DegradedReason string `json:"degraded_reason,omitempty"`
	// Cached marks a response served from the result cache.
	Cached bool `json:"cached"`
}

// SweepRequest is the body of POST /v1/sweep: a full (methods x sizes)
// sweep for one kernel, run as a resumable background job.
type SweepRequest struct {
	Kernel  string    `json:"kernel"`
	Methods []string  `json:"methods"`
	NMin    int       `json:"n_min"`
	NMax    int       `json:"n_max"`
	NStep   int       `json:"n_step"`
	K       int       `json:"k,omitempty"`
	L1      Geometry  `json:"l1"`
	L2      *Geometry `json:"l2,omitempty"`
	Sweeps  int       `json:"sweeps,omitempty"`
}

// normalize canonicalizes the job spec so identical sweeps hash to the
// same job ID no matter how the client spelled them.
func (r SweepRequest) normalize() SweepRequest {
	if r.K == 0 {
		r.K = 30
	}
	if r.Sweeps == 0 {
		r.Sweeps = 1
	}
	if r.NStep == 0 {
		r.NStep = 8
	}
	if k, err := stencil.ParseKernel(r.Kernel); err == nil {
		r.Kernel = k.String()
	}
	names := make([]string, 0, len(r.Methods))
	for _, s := range r.Methods {
		if m, err := core.ParseMethod(s); err == nil {
			names = append(names, m.String())
		} else {
			names = append(names, s)
		}
	}
	sort.Strings(names)
	r.Methods = names
	return r
}

// ID returns the job's content address; resubmitting the same sweep
// joins the existing job instead of running it twice.
func (r SweepRequest) ID() string {
	data, err := json.Marshal(r.normalize())
	if err != nil {
		panic(fmt.Sprintf("advisor: marshal of normalized sweep failed: %v", err))
	}
	sum := sha256.Sum256(data)
	return "job-" + hex.EncodeToString(sum[:8])
}

// Validate bounds the job spec (client errors, HTTP 400).
func (r SweepRequest) Validate() error {
	if _, err := stencil.ParseKernel(r.Kernel); err != nil {
		return err
	}
	if len(r.Methods) == 0 {
		return fmt.Errorf("at least one method is required")
	}
	seen := map[string]bool{}
	for _, s := range r.Methods {
		m, err := core.ParseMethod(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		if seen[m.String()] {
			return fmt.Errorf("method %s repeated", m)
		}
		seen[m.String()] = true
	}
	if r.NMin < 3 || r.NMax > maxProblemN || r.NMin > r.NMax {
		return fmt.Errorf("size range [%d, %d] out of bounds (3..%d, min <= max)", r.NMin, r.NMax, maxProblemN)
	}
	if r.NStep < 0 {
		return fmt.Errorf("n_step %d must be >= 0", r.NStep)
	}
	if k := r.K; k != 0 && (k < 1 || k > maxProblemK) {
		return fmt.Errorf("k %d out of range [1, %d]", r.K, maxProblemK)
	}
	if err := r.L1.validate("l1"); err != nil {
		return err
	}
	if r.L2 != nil {
		if err := r.L2.validate("l2"); err != nil {
			return err
		}
	}
	if r.Sweeps < 0 || r.Sweeps > maxSweeps {
		return fmt.Errorf("sweeps %d out of range [0, %d]", r.Sweeps, maxSweeps)
	}
	step := r.NStep
	if step == 0 {
		step = 8
	}
	points := len(r.Methods) * ((r.NMax-r.NMin)/step + 2)
	if points > maxSweepPoints {
		return fmt.Errorf("sweep of ~%d points exceeds the service limit %d", points, maxSweepPoints)
	}
	return nil
}

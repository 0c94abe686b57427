package advisor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testGeometry is a small direct-mapped L1 so simulations finish fast.
func testGeometry() Geometry { return Geometry{SizeBytes: 16384, LineBytes: 32} }

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.PointTimeout == 0 {
		cfg.PointTimeout = 5 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = -1 // tests want exact backend call counts; -1 maps to 0 retries
	}
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func planReq(n int) PlanRequest {
	return PlanRequest{Kernel: "jacobi", N: n, K: 8, L1: testGeometry(), Method: "Euc3D"}
}

// TestPlanEndpointUntiledCost: an untiled plan (GcdPadNT pads but
// never tiles) carries Cost=+Inf, which JSON numbers cannot express.
// The answer must still be a decodable 200, with the cost as null.
func TestPlanEndpointUntiledCost(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := planReq(40)
	req.Method = "GcdPadNT"
	resp, body := postJSON(t, ts.URL+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("undecodable response %q: %v", body, err)
	}
	if pr.Plan.Tiled || pr.Plan.DI == 0 {
		t.Errorf("GcdPadNT plan = %+v, want padded and untiled", pr.Plan)
	}
	if !bytes.Contains(body, []byte(`"cost": null`)) {
		t.Errorf("non-finite cost not encoded as null:\n%s", body)
	}
}

// TestWriteJSONUnencodable: a value encoding/json refuses answers 500
// with an error body, not the requested status with an empty one.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
		t.Errorf("error body %q: %v", rec.Body.String(), err)
	}
}

// TestPlanEndpoint exercises the happy path: a simulated, certified
// plan, served again from the cache on the second request.
func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/plan", planReq(40))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("bad response %s: %v", body, err)
	}
	if !pr.Certified {
		t.Errorf("jacobi/Euc3D not certified: %s", pr.Verdict)
	}
	if pr.Degraded || pr.Cached {
		t.Errorf("first response degraded=%v cached=%v", pr.Degraded, pr.Cached)
	}
	if pr.Miss == nil || pr.Miss.Source != "simulated" || pr.Miss.L1 == nil || pr.Miss.L1.Accesses == 0 {
		t.Errorf("miss prediction = %+v, want simulated with counts", pr.Miss)
	}
	// Jacobi writes A from B: a fully parallel nest with an empty (but
	// present) dependence table.
	if pr.Dependences == nil {
		t.Error("dependence table absent from response")
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/plan", planReq(40))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second status %d: %s", resp2.StatusCode, body2)
	}
	var pr2 PlanResponse
	if err := json.Unmarshal(body2, &pr2); err != nil {
		t.Fatal(err)
	}
	if !pr2.Cached {
		t.Error("second identical request not served from cache")
	}
	if pr2.Miss == nil || pr2.Miss.L1.Misses != pr.Miss.L1.Misses {
		t.Errorf("cached miss counts differ: %+v vs %+v", pr2.Miss, pr.Miss)
	}
}

// TestPlanEndpointListing checks a program listing is analyzed and
// planned with an analytic prediction (listings cannot simulate) —
// without being marked degraded.
func TestPlanEndpointListing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := PlanRequest{
		Program: "do K = 2, N-1\n  do J = 2, N-1\n    do I = 2, N-1\n      A(I,J,K) = B(I-1,J,K) + B(I+1,J,K)\n",
		Params:  map[string]int{"N": 64},
		N:       64, K: 8,
		L1:     testGeometry(),
		Method: "Euc3D",
	}
	resp, body := postJSON(t, ts.URL+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Degraded {
		t.Errorf("listing marked degraded: %s", pr.DegradedReason)
	}
	if pr.Miss == nil || pr.Miss.Source != "analytic" {
		t.Errorf("miss = %+v, want analytic", pr.Miss)
	}
}

// TestPlanEndpointRefusesTiling checks redblack (carried dependences)
// comes back uncertified with an explanatory verdict, but still planned
// and simulated.
func TestPlanEndpointRefusesTiling(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := planReq(40)
	req.Kernel = "redblack"
	resp, body := postJSON(t, ts.URL+"/v1/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Certified {
		t.Errorf("redblack tiling certified; verdict %q", pr.Verdict)
	}
	if !strings.Contains(pr.Verdict, "refused") {
		t.Errorf("verdict %q does not explain the refusal", pr.Verdict)
	}
	if len(pr.Dependences) == 0 {
		t.Error("redblack's carried dependences missing from the response")
	}
	if pr.Miss == nil || pr.Miss.Source != "simulated" {
		t.Errorf("miss = %+v, want simulated despite refusal", pr.Miss)
	}
}

// TestPlanBadRequests checks the 400 surface: malformed JSON, unknown
// fields, absurd geometries, and hostile listings all answer 400.
func TestPlanBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bodies := []string{
		`{`,
		`[]`,
		`{"bogus_field": 1}`,
		`{"kernel":"jacobi","n":200,"l1":{"size_bytes":999999999999,"line_bytes":32},"method":"Euc3D"}`,
		`{"kernel":"jacobi","n":-5,"l1":{"size_bytes":16384,"line_bytes":32},"method":"Euc3D"}`,
		`{"n":200,"l1":{"size_bytes":16384,"line_bytes":32},"method":"Euc3D"}`,
		`{"program":"DO I = 1, N\nGARBAGE\n","n":64,"l1":{"size_bytes":16384,"line_bytes":32},"method":"Euc3D"}`,
	}
	for i, b := range bodies {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %d: status %d, want 400: %s", i, resp.StatusCode, out)
		}
	}
}

// TestPlanSaturationSheds checks the admission bound: with one worker,
// no queue, and a wedged backend, a concurrent request for a different
// key is shed with 429 and a Retry-After header.
func TestPlanSaturationSheds(t *testing.T) {
	script, err := ParseFaultScript("sim:1=sleep:2s")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{
		Workers: 1, Queue: -1, // -1 normalizes to 0: no waiting room
		Faults:       script,
		PointTimeout: 3 * time.Second,
		Deadline:     5 * time.Second,
	})

	slow := make(chan struct{})
	go func() {
		defer close(slow)
		resp, body := postJSON(t, ts.URL+"/v1/plan", planReq(40))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("wedged request status %d: %s", resp.StatusCode, body)
		}
	}()

	// Wait for the wedged request to occupy the single worker slot, then
	// hit the pool with a different key.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if running, _ := srv.pool.Load(); running == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wedged request never occupied the worker slot")
		}
		time.Sleep(time.Millisecond)
	}
	resp, body := postJSON(t, ts.URL+"/v1/plan", planReq(48))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow request status %d, want 429: %s", resp.StatusCode, body)
	} else if resp.Header.Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After: %s", body)
	}
	<-slow
}

// TestPlanDeadlineDegrades checks a wedged simulation cannot hold a
// request past its deadline: the watchdog abandons the attempt and the
// response degrades to the analytic model, well before the sleep ends.
func TestPlanDeadlineDegrades(t *testing.T) {
	script, err := ParseFaultScript("sim:1=sleep:30s")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Faults:       script,
		Deadline:     400 * time.Millisecond,
		PointTimeout: 100 * time.Millisecond,
	})
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/plan", planReq(40))
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Degraded || pr.Miss == nil || pr.Miss.Source != "analytic" {
		t.Errorf("response = degraded:%v miss:%+v, want analytic degradation", pr.Degraded, pr.Miss)
	}
	if elapsed > 5*time.Second {
		t.Errorf("request took %v against a 400ms deadline", elapsed)
	}
}

// TestBreakerDegradesAndRecovers scripts backend failures at fixed
// request indices and checks the exact state walk: closed, open after
// the threshold (requests degrade without touching the backend),
// half-open after the cooldown, closed again after the probe succeeds.
func TestBreakerDegradesAndRecovers(t *testing.T) {
	script, err := ParseFaultScript("sim:1=error,sim:2=panic")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{
		Faults:          script,
		BreakerFails:    2,
		BreakerCooldown: 200 * time.Millisecond,
	})

	get := func(n int) PlanResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/plan", planReq(n))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("N=%d status %d: %s", n, resp.StatusCode, body)
		}
		var pr PlanResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}

	// Requests 1 and 2 hit scripted faults: both answered, degraded.
	if pr := get(40); !pr.Degraded {
		t.Error("request 1 (injected error) not degraded")
	}
	if pr := get(48); !pr.Degraded {
		t.Error("request 2 (injected panic) not degraded")
	}
	if st := srv.breaker.State(); st != BreakerOpen {
		t.Fatalf("breaker after 2 failures = %v, want open", st)
	}

	// Open breaker: request 3 degrades without a backend call.
	before := script.Calls("sim")
	if pr := get(56); !pr.Degraded || !strings.Contains(pr.DegradedReason, "breaker") {
		t.Errorf("request 3 = degraded:%v reason:%q, want breaker fallback", pr.Degraded, pr.DegradedReason)
	}
	if script.Calls("sim") != before {
		t.Error("open breaker let a request reach the backend")
	}

	// Cooldown passes: the half-open probe runs clean and closes it.
	time.Sleep(250 * time.Millisecond)
	if st := srv.breaker.State(); st != BreakerHalfOpen {
		t.Fatalf("breaker after cooldown = %v, want half-open", st)
	}
	if pr := get(64); pr.Degraded {
		t.Errorf("probe request degraded: %s", pr.DegradedReason)
	}
	if st := srv.breaker.State(); st != BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", st)
	}
}

// occupyPool parks a blocking task in the pool and returns the release
// function; the caller gets a saturated single-worker pool.
func occupyPool(t *testing.T, p *Pool) (release func()) {
	t.Helper()
	block := make(chan struct{})
	occupied := make(chan struct{})
	go func() {
		_ = p.Do(context.Background(), func() error {
			close(occupied)
			<-block
			return nil
		})
	}()
	<-occupied
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		close(block)
		deadline := time.Now().Add(5 * time.Second)
		for {
			if running, _ := p.Load(); running == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("pool slot never freed")
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestHalfOpenProbeShedDoesNotWedge reproduces the probe leak: the
// breaker is half-open, the probe request is shed by a saturated pool,
// and the probe must pass to the next request instead of wedging the
// breaker (and every future /v1/plan) on the analytic model forever.
func TestHalfOpenProbeShedDoesNotWedge(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		Workers: 1, Queue: -1, // -1 normalizes to 0: no waiting room
		BreakerFails:    1,
		BreakerCooldown: time.Millisecond,
	})
	// Trip the breaker, let the cooldown lapse, then claim the half-open
	// probe with a request that gets shed at admission.
	srv.breaker.Record(false)
	time.Sleep(5 * time.Millisecond)
	release := occupyPool(t, srv.pool)
	defer release()

	if _, err := srv.compute(context.Background(), planReq(40)); !errors.Is(err, ErrSaturated) {
		t.Fatalf("probe request error = %v, want ErrSaturated", err)
	}
	release()

	pr, err := srv.compute(context.Background(), planReq(40))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Degraded {
		t.Fatalf("breaker wedged half-open after a shed probe: %s", pr.DegradedReason)
	}
	if st := srv.breaker.State(); st != BreakerClosed {
		t.Fatalf("breaker after replacement probe = %v, want closed", st)
	}
}

// TestDeadlineWhileQueuedDoesNotTripBreaker checks a request deadline
// expiring while the request waits for a pool slot degrades the
// response without charging the breaker: short client deadlines under
// load say nothing about the backend's health.
func TestDeadlineWhileQueuedDoesNotTripBreaker(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1, BreakerFails: 1})
	release := occupyPool(t, srv.pool)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	pr, err := srv.compute(ctx, planReq(40))
	if err != nil {
		t.Fatalf("compute = %v, want a degraded response", err)
	}
	if !pr.Degraded || !strings.Contains(pr.DegradedReason, "deadline") {
		t.Fatalf("response = degraded:%v reason:%q, want deadline degradation", pr.Degraded, pr.DegradedReason)
	}
	if st := srv.breaker.State(); st != BreakerClosed {
		t.Fatalf("breaker = %v after a queued deadline expiry, want closed (threshold 1)", st)
	}
}

// TestJobIDPathTraversalRejected checks GET /v1/jobs/{id} never joins a
// crafted id into the journal path: percent-encoded slashes survive the
// mux's segment matching, so a decoy job planted one directory above
// the journal must stay unreachable (404), as must any other id that
// doesn't match the generated form.
func TestJobIDPathTraversalRejected(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "jobs")
	// The decoy: a "finished job" outside JournalDir that a traversal id
	// like ../secret would resolve.
	spec := mustMarshal(SweepRequest{Kernel: "jacobi", Methods: []string{"Orig"}, NMin: 40, NMax: 40, NStep: 8, K: 8, L1: testGeometry()})
	if err := os.WriteFile(filepath.Join(parent, "secret.job.json"), spec, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(parent, "secret.result.json"), []byte("[]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{JournalDir: dir})

	for _, id := range []string{"..%2Fsecret", "%2E%2E%2Fsecret", "job-..%2F..%2Fsecret", "job-0123456789abcdef", "job-XYZ"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/%s = %d, want 404: %s", id, resp.StatusCode, body)
		}
	}
	if _, ok := srv.jobs.Get("../secret"); ok {
		t.Error("JobManager.Get resolved a traversal id")
	}
}

// TestSweepJobLifecycle submits a small sweep, polls it to completion,
// and checks idempotent resubmission and cross-process result serving.
func TestSweepJobLifecycle(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{JournalDir: dir})
	req := SweepRequest{
		Kernel:  "jacobi",
		Methods: []string{"Orig", "Euc3D"},
		NMin:    40, NMax: 56, NStep: 8, K: 8,
		L1: testGeometry(),
	}
	resp, body := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 6 {
		t.Fatalf("job total = %d, want 6 (2 methods x 3 sizes)", st.Total)
	}
	final := pollJob(t, ts.URL, st.ID, 30*time.Second)
	if final.State != JobDone {
		t.Fatalf("job finished in state %q: %s", final.State, final.Error)
	}
	if len(final.Result) != 6 {
		t.Fatalf("result has %d points, want 6", len(final.Result))
	}
	for _, p := range final.Result {
		if p.Failed || p.L1Rate <= 0 {
			t.Errorf("point %s/N=%d: failed=%v l1=%v", p.Method, p.N, p.Failed, p.L1Rate)
		}
	}

	// Resubmission joins the finished job.
	resp2, body2 := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit status %d: %s", resp2.StatusCode, body2)
	}

	// A fresh server over the same directory serves the result from disk.
	_, ts2 := newTestServer(t, Config{JournalDir: dir})
	resp3, body3 := postJSON(t, ts2.URL+"/v1/sweep", req)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("cross-process resubmit status %d: %s", resp3.StatusCode, body3)
	}
	var st3 JobStatus
	if err := json.Unmarshal(body3, &st3); err != nil {
		t.Fatal(err)
	}
	if st3.State != JobDone || len(st3.Result) != 6 {
		t.Fatalf("cross-process job = %q with %d points", st3.State, len(st3.Result))
	}
}

// TestHealthEndpoint sanity-checks /healthz shape.
func TestHealthEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hv healthView
	if err := json.NewDecoder(resp.Body).Decode(&hv); err != nil {
		t.Fatal(err)
	}
	if hv.Breaker != "closed" {
		t.Errorf("breaker = %q, want closed", hv.Breaker)
	}
}

// pollJob polls GET /v1/jobs/{id} until the job leaves the running
// state or the budget expires.
func pollJob(t *testing.T, base, id string, budget time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, id))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != JobRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after %v (%d/%d points)", id, st.State, budget, st.Done, st.Total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

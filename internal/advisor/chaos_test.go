package advisor

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// chaosSweep is the job both halves of the differential run: 2 methods
// x 3 sizes = 6 points, small enough to finish in seconds.
func chaosSweep() SweepRequest {
	return SweepRequest{
		Kernel:  "jacobi",
		Methods: []string{"Orig", "Euc3D"},
		NMin:    40, NMax: 56, NStep: 8, K: 8,
		L1: testGeometry(),
	}
}

// waitJob polls a manager until the job leaves the running state.
func waitJob(t *testing.T, m *JobManager, id string, budget time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(budget)
	for {
		st, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if st.State != JobRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after %v (%d/%d)", id, budget, st.Done, st.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosDifferentialTornKill is the acceptance differential for the
// resume protocol: a sweep job whose process is scripted to die after
// its third point — leaving a torn half-written journal line — must,
// after a restart over the same directory, converge to a journal and a
// result file byte-identical to a fault-free run's.
func TestChaosDifferentialTornKill(t *testing.T) {
	req := chaosSweep()
	id := req.ID()

	// Fault-free reference run.
	cleanDir := t.TempDir()
	clean := NewJobManager(cleanDir, 1, nil)
	if _, err := clean.Submit(req); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, clean, id, 30*time.Second); st.State != JobDone {
		t.Fatalf("clean run ended %q: %s", st.State, st.Error)
	}
	cleanJournal, err := os.ReadFile(filepath.Join(cleanDir, id+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	cleanResult, err := os.ReadFile(filepath.Join(cleanDir, id+".result.json"))
	if err != nil {
		t.Fatal(err)
	}

	// Faulted run: die after the third simulated point, tearing the
	// journal tail on the way down.
	script, err := ParseFaultScript("job:3=torn")
	if err != nil {
		t.Fatal(err)
	}
	faultDir := t.TempDir()
	faulted := NewJobManager(faultDir, 1, script)
	if _, err := faulted.Submit(req); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, faulted, id, 30*time.Second); st.State != JobInterrupted {
		t.Fatalf("faulted run ended %q, want interrupted: %s", st.State, st.Error)
	}
	if _, err := os.Stat(filepath.Join(faultDir, id+".result.json")); !os.IsNotExist(err) {
		t.Fatal("killed job wrote a result file")
	}
	tornJournal, err := os.ReadFile(filepath.Join(faultDir, id+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(tornJournal, []byte(`{"key":{"kernel":"jac`)) {
		t.Fatalf("journal tail not torn:\n%s", tornJournal)
	}
	if bytes.Equal(tornJournal, cleanJournal) {
		t.Fatal("interrupted journal already equals the clean one; the fault did nothing")
	}

	// Restart: a fresh manager over the same directory (what a new
	// process sees). Resume must find the unfinished job, recover the
	// torn journal, replay the completed points, and finish.
	restarted := NewJobManager(faultDir, 1, nil)
	resumed, err := restarted.Resume()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0] != id {
		t.Fatalf("Resume() = %v, want [%s]", resumed, id)
	}
	if st := waitJob(t, restarted, id, 30*time.Second); st.State != JobDone {
		t.Fatalf("resumed run ended %q: %s", st.State, st.Error)
	}

	resumedJournal, err := os.ReadFile(filepath.Join(faultDir, id+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedJournal, cleanJournal) {
		t.Errorf("resumed journal differs from the fault-free run:\n--- clean ---\n%s\n--- resumed ---\n%s",
			cleanJournal, resumedJournal)
	}
	resumedResult, err := os.ReadFile(filepath.Join(faultDir, id+".result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedResult, cleanResult) {
		t.Errorf("resumed result differs from the fault-free run:\n--- clean ---\n%s\n--- resumed ---\n%s",
			cleanResult, resumedResult)
	}
}

// TestChaosKillWithoutTear is the same differential with a clean kill
// (no torn tail): the journal ends exactly at a record boundary, the
// other crash geometry the resume protocol must handle.
func TestChaosKillWithoutTear(t *testing.T) {
	req := chaosSweep()
	id := req.ID()

	cleanDir := t.TempDir()
	clean := NewJobManager(cleanDir, 1, nil)
	if _, err := clean.Submit(req); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, clean, id, 30*time.Second); st.State != JobDone {
		t.Fatalf("clean run ended %q: %s", st.State, st.Error)
	}
	cleanJournal, err := os.ReadFile(filepath.Join(cleanDir, id+".journal"))
	if err != nil {
		t.Fatal(err)
	}

	script, err := ParseFaultScript("job:2=kill")
	if err != nil {
		t.Fatal(err)
	}
	faultDir := t.TempDir()
	faulted := NewJobManager(faultDir, 1, script)
	if _, err := faulted.Submit(req); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, faulted, id, 30*time.Second); st.State != JobInterrupted {
		t.Fatalf("faulted run ended %q: %s", st.State, st.Error)
	}

	restarted := NewJobManager(faultDir, 1, nil)
	if _, err := restarted.Resume(); err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, restarted, id, 30*time.Second)
	if st.State != JobDone {
		t.Fatalf("resumed run ended %q: %s", st.State, st.Error)
	}
	// The resumed run must not have resimulated the points the journal
	// already held: at least the two pre-kill points replay for free.
	resumedJournal, err := os.ReadFile(filepath.Join(faultDir, id+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumedJournal, cleanJournal) {
		t.Errorf("resumed journal differs from the fault-free run")
	}
	if len(st.Result) != 6 {
		t.Fatalf("result has %d points, want 6", len(st.Result))
	}
}

// TestChaosScriptedRequestStorm drives the plan endpoint through a
// scripted gauntlet — error, panic, wedge — at fixed request indices
// and asserts the service answers every single request with a plan,
// degraded or not, exactly as scripted.
func TestChaosScriptedRequestStorm(t *testing.T) {
	script, err := ParseFaultScript("sim:2=error,sim:3=panic,sim:5=sleep:10s")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, Config{
		Faults:          script,
		BreakerFails:    3,
		BreakerCooldown: time.Hour, // keep transitions manual for the assertions
		PointTimeout:    150 * time.Millisecond,
		Deadline:        2 * time.Second,
	})

	// Request sizes chosen distinct so no request hits the cache.
	wantDegraded := map[int]bool{1: false, 2: true, 3: true, 4: false, 5: true}
	for i := 1; i <= 5; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/plan", planReq(32+8*i))
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		var pr PlanResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if pr.Degraded != wantDegraded[i] {
			t.Errorf("request %d: degraded=%v (%s), want %v", i, pr.Degraded, pr.DegradedReason, wantDegraded[i])
		}
		if pr.Miss == nil {
			t.Errorf("request %d: no miss prediction", i)
		} else if want := predSource(pr.Degraded); pr.Miss.Source != want {
			t.Errorf("request %d: source %q, want %q", i, pr.Miss.Source, want)
		}
	}
	// Failures at 2, 3 and 5 were non-consecutive (4 succeeded), so the
	// breaker must still be closed.
	if st := srv.breaker.State(); st != BreakerClosed {
		t.Errorf("breaker = %v after interleaved failures, want closed", st)
	}
	if calls := script.Calls("sim"); calls != 5 {
		t.Errorf("backend saw %d calls, want 5", calls)
	}
}

func predSource(degraded bool) string {
	if degraded {
		return "analytic"
	}
	return "simulated"
}

package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tiling3d/internal/core"
	"tiling3d/internal/stencil"
)

// Warm-baseline sharing must be invisible in the results: the sweep
// engine may copy a lead point's result to plan-identical followers,
// but every number a sweep produces has to be bit-identical with the
// feature off. These tests pin that, the diagnostic surface, and the
// safety rules (degraded leads don't propagate, paranoid points never
// follow).

// shareGroups recomputes the sweep engine's plan-identity grouping for
// a kernel: map from group key to the (method, n) members in todo
// order. Mirrors simGrid's grouping so tests can locate real groups.
func shareGroups(k stencil.Kernel, opt Options) map[string][]PointKey {
	groups := map[string][]PointKey{}
	for _, m := range opt.Methods {
		for _, n := range opt.Sizes() {
			plan, ok := planShareKey(k, m, n, opt)
			if !ok {
				continue
			}
			gk := fmt.Sprintf("%+v|%d", plan, n)
			groups[gk] = append(groups[gk], PointKey{Kernel: k.String(), Method: m.String(), N: n})
		}
	}
	return groups
}

// expectedShares counts the followers grouping should produce.
func expectedShares(k stencil.Kernel, opt Options) int {
	shares := 0
	for _, g := range shareGroups(k, opt) {
		shares += len(g) - 1
	}
	return shares
}

func TestWarmShareIdentical(t *testing.T) {
	opt := smallOptions()
	totalExpected, totalShared := 0, 0
	for _, k := range stencil.Kernels() {
		var mu sync.Mutex
		shared := 0
		on := opt
		on.DiagHook = func(d PointDiag) {
			mu.Lock()
			if d.Shared != "" {
				shared++
			}
			mu.Unlock()
		}
		off := opt
		off.DisableWarmShare = true

		a, errA := simGrid(k, on)
		b, errB := simGrid(k, off)
		if errA != nil || errB != nil {
			t.Fatalf("%s: simGrid errors: %v, %v", k, errA, errB)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: point %s diverged under warm sharing:\n  on  %+v\n  off %+v",
					k, a[i].Key, a[i], b[i])
			}
		}
		want := expectedShares(k, opt)
		if shared != want {
			t.Errorf("%s: shared %d points, grouping predicts %d", k, shared, want)
		}
		totalExpected += want
		totalShared += shared
	}
	if totalExpected == 0 {
		t.Fatal("no plan-identical groups in the small grid: the sharing path was never exercised")
	}
	if totalShared == 0 {
		t.Fatal("warm sharing never fired")
	}
}

// TestWarmShareParanoidNeverFollows: with every point paranoid, no
// point may copy a result (paranoid points exist to exercise and cross-
// check the full simulation path), and results still match.
func TestWarmShareParanoidNeverFollows(t *testing.T) {
	k := stencil.Jacobi
	opt := smallOptions()
	opt.ParanoidEvery = 1
	var mu sync.Mutex
	shared := 0
	opt.DiagHook = func(d PointDiag) {
		mu.Lock()
		if d.Shared != "" {
			shared++
		}
		mu.Unlock()
	}
	outs, err := simGrid(k, opt)
	if err != nil {
		t.Fatalf("simGrid: %v", err)
	}
	if shared != 0 {
		t.Errorf("paranoid points shared %d results; they must all simulate", shared)
	}
	plain := smallOptions()
	plain.DisableWarmShare = true
	ref, err := simGrid(k, plain)
	if err != nil {
		t.Fatalf("simGrid: %v", err)
	}
	for i := range outs {
		if outs[i] != ref[i] {
			t.Errorf("point %s diverged under all-paranoid sweep", outs[i].Key)
		}
	}
}

// TestWarmShareDegradedLeadFallback: a lead that only produced a
// degraded (steady-disabled fallback) result must not hand that result
// to its followers — they run their own ladder. The injected fault
// panics only the steady-enabled attempt of the lead point, so the lead
// degrades while its followers' own attempts succeed cleanly.
func TestWarmShareDegradedLeadFallback(t *testing.T) {
	k := stencil.Jacobi
	opt := smallOptions()

	// Find a group with at least one follower; its lead is the first
	// member in method order.
	var lead PointKey
	var followers []PointKey
	for _, g := range shareGroups(k, opt) {
		if len(g) > 1 {
			lead, followers = g[0], g[1:]
			break
		}
	}
	if lead == (PointKey{}) {
		t.Fatal("no shareable group in the small grid")
	}

	opt.faultInject = func(o Options, m core.Method, n int) {
		if !o.DisableSteady && m.String() == lead.Method && n == lead.N {
			panic("injected: lead's primary attempt")
		}
	}
	var mu sync.Mutex
	diags := map[PointKey]PointDiag{}
	opt.DiagHook = func(d PointDiag) {
		mu.Lock()
		diags[d.Key] = d
		mu.Unlock()
	}
	outs, err := simGrid(k, opt)
	if err != nil {
		t.Fatalf("simGrid: %v", err)
	}
	ld, ok := diags[lead]
	if !ok || !ld.Degraded {
		t.Fatalf("lead %s did not degrade: %+v", lead, ld)
	}
	if !strings.Contains(ld.Err, "injected") {
		t.Errorf("lead error does not carry the injected fault: %q", ld.Err)
	}
	for _, f := range followers {
		fd, ok := diags[f]
		if !ok {
			t.Fatalf("follower %s produced no diagnostic", f)
		}
		if fd.Shared != "" {
			t.Errorf("follower %s copied a degraded lead's result", f)
		}
		if fd.Degraded || fd.Failed {
			t.Errorf("follower %s should have simulated cleanly: %+v", f, fd)
		}
	}

	// Results must still be exactly the no-fault, no-sharing numbers
	// (the degraded lead's fallback is itself exact).
	plain := smallOptions()
	plain.DisableWarmShare = true
	ref, err := simGrid(k, plain)
	if err != nil {
		t.Fatalf("simGrid: %v", err)
	}
	for i := range outs {
		got := outs[i]
		got.Degraded, got.Err = false, ""
		if got != ref[i] {
			t.Errorf("point %s result diverged under degraded lead:\n  got %+v\n  ref %+v",
				got.Key, outs[i], ref[i])
		}
	}
}

// TestWarmShareDiagHookCoverage: every point of a sweep produces
// exactly one diagnostic record.
func TestWarmShareDiagHookCoverage(t *testing.T) {
	k := stencil.Resid
	opt := smallOptions()
	var mu sync.Mutex
	seen := map[PointKey]int{}
	opt.DiagHook = func(d PointDiag) {
		mu.Lock()
		seen[d.Key]++
		mu.Unlock()
	}
	if _, err := simGrid(k, opt); err != nil {
		t.Fatalf("simGrid: %v", err)
	}
	want := len(opt.Methods) * len(opt.Sizes())
	if len(seen) != want {
		t.Fatalf("DiagHook covered %d points, want %d", len(seen), want)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("point %s fired %d diagnostics", key, n)
		}
	}
}

// sharedResume resumes opt's sweep of k from the journal at path and
// returns the compacted journal, the points actually simulated, and the
// lead method each shared point reported.
func sharedResume(t *testing.T, k stencil.Kernel, opt Options, path string) ([]byte, map[PointKey]bool, map[PointKey]string) {
	t.Helper()
	j, err := OpenJournal(path, opt, true)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	simulated := map[PointKey]bool{}
	shared := map[PointKey]string{}
	opt.Journal = j
	opt.faultInject = func(_ Options, m core.Method, n int) {
		mu.Lock()
		simulated[PointKey{Kernel: k.String(), Method: m.String(), N: n}] = true
		mu.Unlock()
	}
	opt.DiagHook = func(d PointDiag) {
		mu.Lock()
		if d.Shared != "" {
			shared[d.Key] = d.Shared
		}
		mu.Unlock()
	}
	if _, err := simGrid(k, opt); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, simulated, shared
}

// TestWarmShareResumeByteIdentical: a sharing sweep killed between two
// journal appends, right after a group lead's line, resumes to a
// compacted journal byte-identical to the uninterrupted run's, and the
// lead's followers copy the journaled lead (reported Shared) instead of
// simulating. A journal written before PointOutcome dropped its
// "shared" field resumes the same way.
func TestWarmShareResumeByteIdentical(t *testing.T) {
	k := stencil.Jacobi
	opt := smallOptions()
	opt.Workers = 1 // journal lines in dispatch order: a lead, then its followers
	dir := t.TempDir()

	full := filepath.Join(dir, "full.journal")
	j, err := OpenJournal(full, opt, false)
	if err != nil {
		t.Fatal(err)
	}
	run := opt
	run.Journal = j
	if _, err := simGrid(k, run); err != nil {
		t.Fatal(err)
	}
	appended, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}

	var lead PointKey
	var followers []PointKey
	for _, g := range shareGroups(k, opt) {
		if len(g) > 1 {
			lead, followers = g[0], g[1:]
			break
		}
	}
	if lead == (PointKey{}) {
		t.Fatal("no shareable group in the small grid")
	}
	lines := strings.SplitAfter(string(appended), "\n")
	cut := -1
	for i, ln := range lines {
		var o PointOutcome
		if json.Unmarshal([]byte(ln), &o) == nil && o.Key == lead {
			cut = i + 1
		}
	}
	if cut < 0 {
		t.Fatalf("lead %s not journaled", lead)
	}

	killed := filepath.Join(dir, "killed.journal")
	if err := os.WriteFile(killed, []byte(strings.Join(lines[:cut], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	got, simulated, shared := sharedResume(t, k, opt, killed)
	if !bytes.Equal(got, want) {
		t.Errorf("resumed journal differs from the uninterrupted run's:\ngot:\n%s\nwant:\n%s", got, want)
	}
	for _, f := range followers {
		if simulated[f] {
			t.Errorf("follower %s was simulated on resume", f)
		}
		if shared[f] != lead.Method {
			t.Errorf("follower %s reported Shared %q, want %q", f, shared[f], lead.Method)
		}
	}

	// The old format: the follower's line names the lead it copied.
	var old []string
	for _, ln := range strings.SplitAfter(string(want), "\n") {
		var o PointOutcome
		if json.Unmarshal([]byte(ln), &o) == nil && o.Key == followers[0] {
			ln = strings.TrimSuffix(ln, "}\n") + `,"shared":"` + lead.Method + "\"}\n"
		}
		old = append(old, ln)
	}
	legacy := filepath.Join(dir, "legacy.journal")
	if err := os.WriteFile(legacy, []byte(strings.Join(old, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(old, ""), `"shared":"`) {
		t.Fatal("setup: no legacy line written")
	}
	got, simulated, _ = sharedResume(t, k, opt, legacy)
	if !bytes.Equal(got, want) {
		t.Errorf("legacy journal resumed to:\n%s\nwant:\n%s", got, want)
	}
	if len(simulated) != 0 {
		t.Errorf("legacy journal resumed with %d points simulated, want 0", len(simulated))
	}
}

// This file owns the checkpoint journal on disk — a durable artifact:
// the atomicwrite analyzer holds every file creation in this package to
// the temp+rename protocol (appends to an existing journal are the
// format's own crash-safe protocol and stay legal).
//
//lint:persist

package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Checkpoint journal: a JSONL file recording every completed simulation
// point so an interrupted sweep resumes where it left off. The format is
// one header line carrying the options fingerprint, then one line per
// completed point. Recording appends one line; a point recorded twice
// (a failure later retried, a re-run) appends a superseding line, and
// the loader takes the last occurrence of each key. When enough
// superseded lines accumulate the file is compacted: rewritten to a
// temp file in the same directory and renamed over the old one, so the
// journal on disk is always recoverable no matter when the process dies
// — at worst the final line is torn, and the loader drops it. Opening
// also compacts, so a journal that survived a crash is back in
// canonical form (header + one line per point, keys sorted) before any
// appends. Append-per-point keeps recording O(1) where the previous
// rewrite-per-point design was quadratic in sweep length — noise for a
// few hundred points, not for a long-running service journaling
// thousands.

const (
	journalMagic   = "tiling3d-sweep-journal"
	journalVersion = 1

	// journalCompactDups is how many superseded (duplicate-key) lines
	// may accumulate before Record compacts the file. Duplicates only
	// arise from retried failures and deliberate re-records, so the
	// threshold is rarely reached; it exists to bound file growth when a
	// pathological sweep fails and retries the same points forever.
	journalCompactDups = 64
)

type journalHeader struct {
	Magic       string `json:"magic"`
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// PointKey identifies one simulation point. It deliberately carries no
// sweep or experiment name: two experiments that simulate the same
// (kernel, method, N) under the same options fingerprint get bit-
// identical results, so sharing journal entries between, say, Table 3
// and a figure sweep is correct and saves work.
type PointKey struct {
	Kernel string `json:"kernel"`
	Method string `json:"method"`
	N      int    `json:"n"`
}

func (k PointKey) String() string {
	return fmt.Sprintf("%s/%s N=%d", k.Kernel, k.Method, k.N)
}

// less orders keys canonically (kernel, method, N); compaction writes
// entries in this order so two journals holding the same points are
// byte-identical regardless of the completion order that produced them
// — which is what lets the advisor service diff a resumed job's journal
// against an uninterrupted run's.
func (k PointKey) less(o PointKey) bool {
	if k.Kernel != o.Kernel {
		return k.Kernel < o.Kernel
	}
	if k.Method != o.Method {
		return k.Method < o.Method
	}
	return k.N < o.N
}

// PointOutcome is the journaled record of one simulation point: the
// result, or how it failed. A Degraded outcome carries a valid result
// computed with the steady engine disabled after the primary attempt
// failed; Err then records why. A Failed outcome has no result. Whether
// the point copied a plan-identical lead's result is deliberately not
// recorded (PointDiag.Shared reports it): which point copies depends on
// where an earlier run was interrupted, and a resumed sweep must
// journal exactly what an uninterrupted one does. Journals that still
// carry the old "shared" field load as before; the field is ignored.
type PointOutcome struct {
	Key      PointKey  `json:"key"`
	Res      SimResult `json:"res"`
	Degraded bool      `json:"degraded,omitempty"`
	Failed   bool      `json:"failed,omitempty"`
	Err      string    `json:"err,omitempty"`
}

// Journal is a checkpoint file of completed sweep points. Safe for
// concurrent use; the sweep engine records from its worker goroutines.
type Journal struct {
	mu          sync.Mutex
	path        string
	fingerprint string
	entries     map[PointKey]PointOutcome
	dups        int // superseded lines in the file since the last compaction
	writeErr    error
	resumed     int
}

// OpenJournal opens or creates the journal at path for a sweep with the
// given options. With resume set, an existing file is loaded first:
// already-completed points will answer Lookup instead of re-simulating.
// A journal written under a different options fingerprint is refused —
// mixing results from different cache geometries or sweep settings
// would silently corrupt tables. A missing file under resume is treated
// as a fresh start, so resume scripts are idempotent. A torn final line
// (interrupted write) is dropped and its point recomputed; corruption
// anywhere else is an error. The opened journal is immediately
// compacted to canonical form, so crash damage never outlives the next
// open.
func OpenJournal(path string, opt Options, resume bool) (*Journal, error) {
	j := &Journal{
		path:        path,
		fingerprint: opt.Fingerprint(),
		entries:     map[PointKey]PointOutcome{},
	}
	if resume {
		if err := j.load(); err != nil {
			return nil, err
		}
		j.resumed = len(j.entries)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.compactLocked(); err != nil {
		return nil, fmt.Errorf("bench: journal %s: %w", path, err)
	}
	return j, nil
}

func (j *Journal) load() error {
	data, err := os.ReadFile(j.path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	lines := strings.Split(string(data), "\n")
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) == 0 {
		return nil
	}
	var hdr journalHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		return fmt.Errorf("bench: journal %s: corrupt header: %v", j.path, err)
	}
	if hdr.Magic != journalMagic || hdr.Version != journalVersion {
		return fmt.Errorf("bench: journal %s: not a version-%d sweep journal (magic %q, version %d)",
			j.path, journalVersion, hdr.Magic, hdr.Version)
	}
	if hdr.Fingerprint != j.fingerprint {
		return fmt.Errorf("bench: journal %s was written under different sweep options (journal %q, current %q); refusing to mix results",
			j.path, hdr.Fingerprint, j.fingerprint)
	}
	body := lines[1:]
	for i, ln := range body {
		var out PointOutcome
		uerr := json.Unmarshal([]byte(ln), &out)
		if uerr != nil || out.Key == (PointKey{}) {
			if i == len(body)-1 {
				// A torn final line means the writer died mid-write;
				// everything before it is intact. Drop the entry — its
				// point simply recomputes.
				continue
			}
			return fmt.Errorf("bench: journal %s: corrupt entry on line %d: %v", j.path, i+2, uerr)
		}
		// Later lines supersede earlier ones for the same key: an append
		// after a retried failure is the newer truth.
		j.entries[out.Key] = out
	}
	return nil
}

// Record journals one completed point by appending a single line. Write
// failures do not interrupt the sweep (the results in memory are still
// good); the first one is kept and reported by WriteErr.
func (j *Journal) Record(out PointOutcome) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.entries[out.Key]; ok {
		j.dups++
	}
	j.entries[out.Key] = out
	var err error
	if j.dups >= journalCompactDups {
		err = j.compactLocked()
	} else {
		err = j.appendLocked(out)
	}
	if err != nil && j.writeErr == nil {
		j.writeErr = fmt.Errorf("bench: journal %s: %w", j.path, err)
	}
}

// appendLocked writes one entry line to the end of the journal file. The
// file is opened per record (not held open) so a journal whose file or
// directory vanished mid-run reports the failure instead of appending
// happily to an unlinked inode; a missing file falls back to a full
// compaction, which recreates it — or surfaces the real error when the
// directory itself is gone.
func (j *Journal) appendLocked(out PointOutcome) error {
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		return j.compactLocked()
	}
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Compact rewrites the journal atomically in canonical form: the header
// line, then one line per point in sorted key order. Two compacted
// journals holding the same outcomes are byte-identical however the
// sweeps that filled them were scheduled or interrupted. The advisor
// service compacts a job's journal when the job completes; Record also
// compacts automatically once enough superseded lines accumulate.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.compactLocked(); err != nil {
		werr := fmt.Errorf("bench: journal %s: %w", j.path, err)
		if j.writeErr == nil {
			j.writeErr = werr
		}
		return werr
	}
	return nil
}

func (j *Journal) compactLocked() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(journalHeader{Magic: journalMagic, Version: journalVersion, Fingerprint: j.fingerprint}); err != nil {
		return err
	}
	keys := make([]PointKey, 0, len(j.entries))
	for k := range j.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].less(keys[b]) })
	for _, k := range keys {
		if err := enc.Encode(j.entries[k]); err != nil {
			return err
		}
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".tmp-")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	j.dups = 0
	return nil
}

// Lookup returns the journaled outcome for key. Failed outcomes do not
// satisfy a lookup: a resumed sweep retries points that failed rather
// than replaying the failure.
func (j *Journal) Lookup(key PointKey) (PointOutcome, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	out, ok := j.entries[key]
	if !ok || out.Failed {
		return PointOutcome{}, false
	}
	return out, true
}

// Len returns the number of journaled points.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Resumed returns how many usable points the journal held when opened.
func (j *Journal) Resumed() int { return j.resumed }

// Path returns the journal file path.
func (j *Journal) Path() string { return j.path }

// WriteErr returns the first journal write failure, if any. Sweeps
// surface it at the end so a checkpoint that silently went stale (disk
// full, permissions) is not mistaken for a good one.
func (j *Journal) WriteErr() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeErr
}

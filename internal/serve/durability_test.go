package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"golts/wave"
)

// parkOnShutdown wires the test hook so every attempt blocks until the
// server shuts down and then reports the shutdown as its failure — the
// deterministic way to catch jobs "mid-run" at Close.
func parkOnShutdown(s *Server) {
	s.testRunFault = func(*Job, int) error {
		<-s.baseCtx.Done()
		return s.baseCtx.Err()
	}
}

// TestSpoolReplayAfterRestart: jobs interrupted by a shutdown — one
// running, one still queued — keep their spool entries and run to
// completion on the next server instance with the same ids.
func TestSpoolReplayAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1, SpoolDir: dir})
	parkOnShutdown(s1)
	var ids []string
	for i := 0; i < 2; i++ {
		j, err := s1.Submit(tinyReq())
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, j.ID)
	}
	s1.Close()

	s2 := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1, SpoolDir: dir})
	defer s2.Close()
	if got := s2.Stats().Replayed; got != 2 {
		t.Fatalf("replayed %d jobs, want 2", got)
	}
	for _, id := range ids {
		j, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s not replayed", id)
		}
		waitTerminal(t, j)
		if st := j.StateNow(); st != StateDone {
			t.Fatalf("replayed job %s finished %s (%s)", id, st, j.Err())
		}
		if _, err := os.Stat(s2.spool.jobPath(id)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("job %s spool entry not removed after completion", id)
		}
	}
}

// TestResumeByteIdentical is the durability acceptance bar: a spooled
// job interrupted mid-run resumes from its checkpoint on the next
// instance and the final row stream is byte-identical to an
// uninterrupted run.
func TestResumeByteIdentical(t *testing.T) {
	req := tinyReq()
	req.Cycles = 40

	ref := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1})
	jr, err := ref.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, jr)
	if jr.StateNow() != StateDone {
		t.Fatalf("reference job: %s (%s)", jr.StateNow(), jr.Err())
	}
	want := rowBytes(jr)
	ref.Close()

	dir := t.TempDir()
	cfg := Config{Concurrency: 1, WorkerBudget: 1, SpoolDir: dir, CheckpointEvery: 2}
	s1 := mustNew(t, cfg)
	j1, err := s1.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Interrupt once the run is demonstrably past a few checkpoints.
	for deadline := time.Now().Add(time.Minute); j1.rows.len() < 10; {
		if time.Now().After(deadline) {
			t.Fatal("job never produced enough rows to interrupt")
		}
		if j1.StateNow().Terminal() {
			t.Fatalf("job finished before the interrupt; raise Cycles")
		}
		time.Sleep(time.Millisecond)
	}
	s1.Close()

	s2 := mustNew(t, cfg)
	defer s2.Close()
	j2, ok := s2.Job(j1.ID)
	if !ok {
		t.Fatalf("job %s not replayed", j1.ID)
	}
	waitTerminal(t, j2)
	if j2.StateNow() != StateDone {
		t.Fatalf("resumed job: %s (%s)", j2.StateNow(), j2.Err())
	}
	if got := rowBytes(j2); !bytes.Equal(got, want) {
		t.Fatalf("resumed stream differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	st := s2.Stats()
	if st.Resumed < 1 {
		t.Errorf("job restarted from scratch, not from its checkpoint: %+v", st)
	}
	if st.Checkpoints < 1 {
		t.Errorf("resumed run wrote no checkpoints: %+v", st)
	}
}

// TestRetryBackoffThenSuccess: infrastructure failures retry with
// backoff until an attempt succeeds; the terminal snapshot is clean.
func TestRetryBackoffThenSuccess(t *testing.T) {
	s := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1, RetryBaseDelay: 5 * time.Millisecond})
	defer s.Close()
	attempts := 0
	s.testRunFault = func(j *Job, attempt int) error {
		attempts++
		if attempt < 2 {
			return fmt.Errorf("transient failure %d", attempt)
		}
		return nil
	}
	req := tinyReq()
	req.MaxRetries = 3
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, j)
	if j.StateNow() != StateDone {
		t.Fatalf("job finished %s (%s), want done", j.StateNow(), j.Err())
	}
	if attempts != 3 || j.Retries() != 2 {
		t.Errorf("attempts=%d retries=%d, want 3 attempts / 2 retries", attempts, j.Retries())
	}
	if kind := j.ErrKind(); kind != "" {
		t.Errorf("successful job kept error kind %q", kind)
	}
	waitIdle(s)
	if st := s.Stats(); st.Retried != 2 || st.Done != 1 {
		t.Errorf("stats: %+v, want retried=2 done=1", st)
	}
}

// TestRetriesExhausted: a job that keeps failing lands failed with kind
// "infra" after MaxRetries retries.
func TestRetriesExhausted(t *testing.T) {
	s := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1, RetryBaseDelay: 5 * time.Millisecond})
	defer s.Close()
	s.testRunFault = func(*Job, int) error { return errors.New("node on fire") }
	req := tinyReq()
	req.MaxRetries = 1
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, j)
	if j.StateNow() != StateFailed || j.ErrKind() != "infra" || j.Retries() != 1 {
		t.Fatalf("state=%s kind=%s retries=%d, want failed/infra/1",
			j.StateNow(), j.ErrKind(), j.Retries())
	}
	waitIdle(s)
	if st := s.Stats(); st.Failed != 1 || st.Retried != 1 {
		t.Errorf("stats: %+v, want failed=1 retried=1", st)
	}
}

// TestConfigErrorNotRetried: a typed configuration rejection
// (*wave.OptionError) fails immediately with kind "config" — no retry
// budget is spent on an input that can never succeed — and the kind is
// visible on the HTTP status surface.
func TestConfigErrorNotRetried(t *testing.T) {
	s := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1, RetryBaseDelay: time.Millisecond})
	defer s.Close()
	s.testRunFault = func(*Job, int) error {
		return &wave.OptionError{Option: "WithWorkers", Err: wave.ErrWorkersRange}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := tinyReq()
	req.MaxRetries = 5
	j, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitTerminal(t, j)
	if j.StateNow() != StateFailed || j.ErrKind() != "config" || j.Retries() != 0 {
		t.Fatalf("state=%s kind=%s retries=%d, want failed/config/0",
			j.StateNow(), j.ErrKind(), j.Retries())
	}
	if st := s.Stats(); st.Retried != 0 {
		t.Errorf("config rejection consumed %d retries", st.Retried)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + j.ID)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var sn struct {
		ErrorKind string `json:"error_kind"`
	}
	if err := json.Unmarshal(raw, &sn); err != nil || sn.ErrorKind != "config" {
		t.Fatalf("status JSON error_kind = %q (%v), want \"config\"; body: %s", sn.ErrorKind, err, raw)
	}
}

// TestCancelRemovesSpool: cancelling a queued job deletes its spool
// entry so it cannot haunt the next restart.
func TestCancelRemovesSpool(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1, SpoolDir: dir})
	parkOnShutdown(s) // keeps the first job occupying the only slot
	blocker, err := s.Submit(tinyReq())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	queued, err := s.Submit(tinyReq())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := os.Stat(s.spool.jobPath(queued.ID)); err != nil {
		t.Fatalf("queued job not spooled: %v", err)
	}
	if !s.Cancel(queued.ID) {
		t.Fatal("cancel returned false")
	}
	waitTerminal(t, queued)
	if _, err := os.Stat(s.spool.jobPath(queued.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("cancelled job left its spool entry behind")
	}
	_ = blocker
	s.Close()
}

// TestSpoolDropsInvalidSpecs: a spooled spec that no longer validates
// (or is corrupt) is dropped at replay instead of wedging the restart.
func TestSpoolDropsInvalidSpecs(t *testing.T) {
	dir := t.TempDir()
	sp, err := newSpool(dir)
	if err != nil {
		t.Fatalf("newSpool: %v", err)
	}
	bad := tinyReq()
	bad.Workers = 64 // exceeds the restarted server's budget
	if err := sp.saveJob(spoolJob{ID: "j1", Req: bad}); err != nil {
		t.Fatalf("saveJob: %v", err)
	}
	if err := os.WriteFile(sp.jobPath("j2"), []byte("{torn"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	s := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1, SpoolDir: dir})
	defer s.Close()
	if got := s.Stats().Replayed; got != 0 {
		t.Fatalf("replayed %d invalid jobs", got)
	}
	if _, err := os.Stat(sp.jobPath("j1")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("over-budget spec kept in spool")
	}
	if _, err := os.Stat(sp.jobPath("j2")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("corrupt spec kept in spool")
	}
}

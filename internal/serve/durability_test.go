package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"golts/internal/ckpt"
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
			t.Fatalf("replayed job %s finished %s (%s)", id, st, j.snapshot().Error)
		}
		if _, err := os.Stat(s2.spool.jobPath(id)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("job %s spool entry not removed after completion", id)
		}
	}
}

// TestResumeByteIdentical is the durability acceptance bar: a spooled
// job interrupted mid-run resumes from its checkpoint on the next
// instance and the final row stream is byte-identical to an
// uninterrupted run. A checkpoint of another format version (the
// interrupted job's own, stamped version 1) cannot be read: the job
// recomputes from cycle 0 through buildSpooled's fallback instead, and
// its stream is byte-identical too.
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
		t.Fatalf("reference job: %s (%s)", jr.StateNow(), jr.snapshot().Error)
	}
	want := rowBytes(jr)
	ref.Close()
	if !seismograms(t, want).SawWave() {
		t.Fatal("vacuous reference: no receiver reaches simio.WaveFloor over two nonzero samples")
	}

	for _, c := range []struct {
		name    string
		version uint32 // stamped into the spooled checkpoint; 0 leaves it
	}{{"resume", 0}, {"version 1 recomputes", 1}} {
		t.Run(c.name, func(t *testing.T) {
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
			if c.version != 0 {
				path := s1.spool.ckptPath(j1.ID)
				raw, err := os.ReadFile(path)
				if err != nil || len(raw) < 12 || binary.LittleEndian.Uint32(raw[8:]) != ckpt.Version {
					t.Fatalf("spooled checkpoint: %d bytes, %v", len(raw), err)
				}
				binary.LittleEndian.PutUint32(raw[8:], c.version)
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			s2 := mustNew(t, cfg)
			defer s2.Close()
			j2, ok := s2.Job(j1.ID)
			if !ok {
				t.Fatalf("job %s not replayed", j1.ID)
			}
			waitTerminal(t, j2)
			if j2.StateNow() != StateDone {
				t.Fatalf("resumed job: %s (%s)", j2.StateNow(), j2.snapshot().Error)
			}
			if got := rowBytes(j2); !bytes.Equal(got, want) {
				t.Fatalf("resumed stream differs from uninterrupted run (%d vs %d bytes)", len(got), len(want))
			}
			st := s2.Stats()
			if c.version == 0 && st.Resumed < 1 {
				t.Errorf("job restarted from scratch, not from its checkpoint: %+v", st)
			}
			if c.version != 0 && st.Resumed != 0 {
				t.Errorf("job resumed from a version-%d checkpoint: %+v", c.version, st)
			}
			if st.Checkpoints < 1 {
				t.Errorf("resumed run wrote no checkpoints: %+v", st)
			}
		})
	}
}

// TestDegradedDistributedJob: a distributed job whose rank 1 is killed,
// and killed again while the recovery replays, exhausts its recovery
// budget; the coordinator retires the rank and finishes on the survivor.
// The job must end done, report degraded_ranks in its JSON and in GET
// /stats, hash like the local run of the same request (the rank count is
// not part of the configuration) and stream rows byte-identical to it.
func TestDegradedDistributedJob(t *testing.T) {
	s := mustNew(t, Config{Concurrency: 1, WorkerBudget: 4})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := tinyReq()
	req.Cycles = 40
	req.Workers = 4 // the decomposition width, local and distributed

	run := func(req JobRequest) ([]byte, snapshot) {
		resp, sn := postJob(t, ts.URL, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		j, _ := s.Job(sn.ID)
		waitTerminal(t, j)
		gresp, err := http.Get(ts.URL + "/jobs/" + sn.ID)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		defer gresp.Body.Close()
		var got snapshot
		if err := json.NewDecoder(gresp.Body).Decode(&got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.State != StateDone {
			t.Fatalf("job %s: %s (%s)", got.ID, got.State, got.Error)
		}
		return rowBytes(j), got
	}

	want, ref := run(req)
	if !seismograms(t, want).SawWave() {
		t.Fatal("vacuous reference: no receiver reaches simio.WaveFloor over two nonzero samples")
	}

	// The spawned ranks inherit the plan; a rank's cycle counter restarts
	// with each spawn generation, so gen=1 fires early in the replay.
	t.Setenv("GOLTS_FAULT", "kill:rank=1,cycle=20,substep=1;kill:rank=1,cycle=1,substep=1,gen=1")
	req.Ranks, req.MinRanks, req.MaxRecoveries = 2, 1, 1
	got, sn := run(req)
	if sn.Hash != ref.Hash {
		t.Errorf("the rank count leaked into the configuration hash: %s vs %s", sn.Hash, ref.Hash)
	}
	if sn.DegradedRanks != 1 {
		t.Errorf("job JSON degraded_ranks = %d, want 1", sn.DegradedRanks)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("degraded rows differ from the local run (%d vs %d bytes)", len(got), len(want))
	}
	waitIdle(s)
	if stats := getStats(t, ts.URL); stats.DegradedRanks != 1 {
		t.Errorf("/stats degraded_ranks = %d, want 1", stats.DegradedRanks)
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
		t.Fatalf("job finished %s (%s), want done", j.StateNow(), j.snapshot().Error)
	}
	if attempts != 3 || j.snapshot().Retries != 2 {
		t.Errorf("attempts=%d retries=%d, want 3 attempts / 2 retries", attempts, j.snapshot().Retries)
	}
	if kind := j.snapshot().ErrorKind; kind != "" {
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
	if j.StateNow() != StateFailed || j.snapshot().ErrorKind != "infra" || j.snapshot().Retries != 1 {
		t.Fatalf("state=%s kind=%s retries=%d, want failed/infra/1",
			j.StateNow(), j.snapshot().ErrorKind, j.snapshot().Retries)
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
	if j.StateNow() != StateFailed || j.snapshot().ErrorKind != "config" || j.snapshot().Retries != 0 {
		t.Fatalf("state=%s kind=%s retries=%d, want failed/config/0",
			j.StateNow(), j.snapshot().ErrorKind, j.snapshot().Retries)
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

package serve

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"golts/internal/leakgate"
	"golts/internal/simio"
	"golts/wave"
)

// TestMain routes the rank processes a distributed job spawns (re-execs
// of this test binary) into the rank runtime, and runs the suite under
// the package-exit leak gate.
func TestMain(m *testing.M) {
	wave.RankMain()
	os.Exit(leakgate.Run(m))
}

// tinyReq is the fast test configuration: the smallest benchmark mesh,
// two coarse cycles.
func tinyReq() JobRequest {
	return JobRequest{
		Config: simio.Config{
			Mesh:   "trench",
			Scale:  0.0005,
			LTS:    true,
			Cycles: 2,
		},
		Workers: 1,
	}
}

func mustNew(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func waitTerminal(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID, j.StateNow())
	}
}

// waitIdle blocks until no job is in flight. The dispatcher books a job's
// outcome (Done / Failed / Cancelled counters) after the job has turned
// terminal, under s.mu, and broadcasts s.cond; a test reading those
// counters right after waitTerminal must wait for that, not race it.
func waitIdle(s *Server) {
	s.mu.Lock()
	for s.inFlight > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

func postJob(t *testing.T, url string, req JobRequest) (*http.Response, snapshot) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var sn snapshot
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, sn
}

// TestQueueSaturationAndCancelReleasesSlot drives the full bounded-queue
// lifecycle over HTTP: with the single dispatcher pinned by a running
// job, submissions beyond MaxQueue get 429; cancelling one queued job
// frees its slot so the next submission is accepted again; cancelling
// the running blocker ends it promptly as "cancelled".
func TestQueueSaturationAndCancelReleasesSlot(t *testing.T) {
	s := mustNew(t, Config{MaxQueue: 2, Concurrency: 1, WorkerBudget: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A long blocker occupies the only dispatcher; cancelled at the end.
	blocker := tinyReq()
	blocker.Cycles = 100000
	resp, bsn := postJob(t, ts.URL, blocker)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit: status %d", resp.StatusCode)
	}
	bj, _ := s.Job(bsn.ID)
	for i := 0; bj.StateNow() != StateRunning; i++ {
		if i > 1000 {
			t.Fatal("blocker never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fill the queue, then overflow it.
	var queued []string
	for i := 0; i < 2; i++ {
		resp, sn := postJob(t, ts.URL, tinyReq())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("queued submit %d: status %d", i, resp.StatusCode)
		}
		queued = append(queued, sn.ID)
	}
	resp, _ = postJob(t, ts.URL, tinyReq())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: status %d, want 429", resp.StatusCode)
	}
	if st := s.Stats(); st.QueueDepth != 2 || st.InFlight != 1 {
		t.Fatalf("stats: depth %d in-flight %d, want 2 / 1", st.QueueDepth, st.InFlight)
	}

	// Cancel one queued job: it finishes immediately and frees its slot.
	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued[0], nil)
	dresp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	qj, _ := s.Job(queued[0])
	waitTerminal(t, qj)
	if st := qj.StateNow(); st != StateCancelled {
		t.Fatalf("cancelled queued job state = %s", st)
	}
	resp, _ = postJob(t, ts.URL, tinyReq())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after cancel: status %d, want 202 (slot not released)", resp.StatusCode)
	}

	// Cancel the running blocker; it must wind down promptly.
	if !s.Cancel(bsn.ID) {
		t.Fatal("Cancel(blocker) = false")
	}
	waitTerminal(t, bj)
	if st := bj.StateNow(); st != StateCancelled {
		t.Fatalf("cancelled running job state = %s", st)
	}
}

// TestConcurrentSameConfigBuildsOnce submits the same configuration to
// two dispatchers at once: single-flight construction must build each
// artifact exactly as often as one cold run does, and both jobs must
// produce identical rows.
func TestConcurrentSameConfigBuildsOnce(t *testing.T) {
	// Reference: builds (= cache misses) of one cold run.
	ref := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1})
	j, err := ref.Submit(tinyReq())
	if err != nil {
		t.Fatalf("reference submit: %v", err)
	}
	waitTerminal(t, j)
	if st := j.StateNow(); st != StateDone {
		t.Fatalf("reference job: %s (%s)", st, j.snapshot().Error)
	}
	coldBuilds := ref.Stats().Cache.Misses
	ref.Close()
	if coldBuilds == 0 {
		t.Fatal("cold run recorded no artifact builds")
	}

	s := mustNew(t, Config{Concurrency: 2, WorkerBudget: 2})
	defer s.Close()
	var jobs [2]*Job
	for i := range jobs {
		if jobs[i], err = s.Submit(tinyReq()); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for _, j := range jobs {
		waitTerminal(t, j)
		if st := j.StateNow(); st != StateDone {
			t.Fatalf("job %s: %s (%s)", j.ID, st, j.snapshot().Error)
		}
	}
	ctr := s.Stats().Cache
	if ctr.Misses != coldBuilds {
		t.Errorf("two concurrent same-config jobs built %d artifacts, one cold run builds %d", ctr.Misses, coldBuilds)
	}
	if ctr.Hits == 0 {
		t.Error("second job joined no cached builds")
	}
	if !bytes.Equal(rowBytes(jobs[0]), rowBytes(jobs[1])) {
		t.Error("concurrent same-config jobs produced different rows")
	}
}

// seismograms decodes a job's CSV row stream — a time column and one
// column per receiver — into the set whose SawWave guards the byte
// comparisons: streams that fail it cannot tell a correct run from one
// that lost the field.
func seismograms(t *testing.T, rows []byte) *wave.Seismograms {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(rows)).ReadAll()
	if err != nil || len(recs) < 2 {
		t.Fatalf("row stream: %d records, %v", len(recs), err)
	}
	set := &wave.Seismograms{Traces: make([]wave.Trace, len(recs[0])-1)}
	for _, rec := range recs[1:] {
		for c, field := range rec {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				t.Fatalf("row stream sample %q: %v", field, err)
			}
			if c == 0 {
				set.Times = append(set.Times, v)
			} else {
				set.Traces[c-1].Values = append(set.Traces[c-1].Values, v)
			}
		}
	}
	return set
}

// getStats fetches and decodes GET /stats.
func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return st
}

func rowBytes(j *Job) []byte {
	var buf bytes.Buffer
	rows, _, _ := j.rows.next(0)
	for _, r := range rows {
		buf.Write(r)
	}
	return buf.Bytes()
}

// TestCachedRunBitwiseIdentical is the service-level reproducibility
// bar: a warm (cache-hit) run of the same configuration gets the same
// hash and streams byte-identical CSV to the cold run, GET /stats counts
// the cache hits, and both match a direct wave.FromConfig run of the
// same configuration without any cache. The run is long enough for the
// wave to reach the receivers, so the comparison is not one of zeros.
func TestCachedRunBitwiseIdentical(t *testing.T) {
	s := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := tinyReq()
	req.Cycles = 40

	fetch := func() ([]byte, string) {
		resp, sn := postJob(t, ts.URL, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		// Stream rows while the job runs: the handler must deliver the
		// full byte stream and terminate at job completion.
		rresp, err := http.Get(ts.URL + "/jobs/" + sn.ID + "/rows")
		if err != nil {
			t.Fatalf("GET rows: %v", err)
		}
		defer rresp.Body.Close()
		if ct := rresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Errorf("rows content type %q", ct)
		}
		data, err := io.ReadAll(rresp.Body)
		if err != nil {
			t.Fatalf("read rows: %v", err)
		}
		j, _ := s.Job(sn.ID)
		waitTerminal(t, j)
		if st := j.StateNow(); st != StateDone {
			t.Fatalf("job: %s (%s)", st, j.snapshot().Error)
		}
		return data, sn.Hash
	}

	cold, coldHash := fetch()
	warm, warmHash := fetch()
	if !seismograms(t, cold).SawWave() {
		t.Fatal("vacuous reference: no receiver reaches simio.WaveFloor over two nonzero samples")
	}
	if coldHash != warmHash {
		t.Errorf("identical configurations hashed differently: %s vs %s", coldHash, warmHash)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm (cache-hit) run streams different bytes than cold run")
	}
	waitIdle(s)
	if stats := getStats(t, ts.URL); stats.Cache.Hits == 0 {
		t.Errorf("warm run hit no cached artifacts: %+v", stats.Cache)
	}

	// Direct cache-free reference through the wave facade.
	if err := req.canonicalize(); err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	cfgJSON, _ := json.Marshal(req.Config)
	var buf bytes.Buffer
	sim, err := wave.FromConfig(strings.NewReader(string(cfgJSON)),
		wave.WithWorkers(req.Workers),
		wave.WithPartitioner(wave.Partitioner(req.Partitioner)),
		wave.WithSeed(req.Seed),
		wave.WithSink(wave.CSVSink(&buf)),
	)
	if err != nil {
		t.Fatalf("FromConfig: %v", err)
	}
	if err := sim.Run(context.Background(), 0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := sim.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !bytes.Equal(cold, buf.Bytes()) {
		t.Error("service rows diverge from direct cache-free CSVSink run")
	}
}

// TestJobStatusAndStats covers the polling surface: snapshots carry
// state transitions, stats and the config hash; /stats and /healthz
// respond; same-config submissions share a hash while priority does not
// perturb it.
func TestJobStatusAndStats(t *testing.T) {
	s := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, sn := postJob(t, ts.URL, tinyReq())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if sn.State != StateQueued && sn.State != StateRunning {
		t.Errorf("fresh job state %s", sn.State)
	}
	if sn.Hash == "" {
		t.Error("snapshot missing config hash")
	}
	base, prio := tinyReq(), tinyReq()
	prio.Priority = 7
	if base.canonicalize() != nil || prio.canonicalize() != nil {
		t.Fatal("canonicalize failed")
	}
	if base.hash() != prio.hash() {
		t.Error("priority perturbs the config hash")
	}

	j, _ := s.Job(sn.ID)
	waitTerminal(t, j)
	gresp, err := http.Get(ts.URL + "/jobs/" + sn.ID)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	var got snapshot
	if err := json.NewDecoder(gresp.Body).Decode(&got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	gresp.Body.Close()
	if got.State != StateDone {
		t.Fatalf("finished job state %s (%s)", got.State, got.Error)
	}
	if got.Stats == nil || got.Stats.Cycles == 0 {
		t.Errorf("finished job missing stats: %+v", got.Stats)
	}
	if got.Rows == 0 {
		t.Error("finished job reports zero rows")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v / %v", err, hresp)
	}
	hresp.Body.Close()
	waitIdle(s)
	st := getStats(t, ts.URL)
	if st.Submitted != 1 || st.Done != 1 {
		t.Errorf("stats counters: %+v", st)
	}
	if st.WorkerBudget != 1 {
		t.Errorf("worker budget %d", st.WorkerBudget)
	}

	nresp, err := http.Get(ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatalf("GET unknown: %v", err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", nresp.StatusCode)
	}
}

// TestSubmitValidation: malformed and invalid requests are rejected
// eagerly with 400, before any job is enqueued.
func TestSubmitValidation(t *testing.T) {
	s := mustNew(t, Config{Concurrency: 1, WorkerBudget: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []string{
		`{"mesh": "trench", "scale": 0.0005, "physics": "plasma"}`,
		`{"mesh": "nosuchmesh", "scale": 0.0005}`,
		`{"mesh": "trench", "scale": 0.0005, "workers": 99}`,
		`{"mesh": "trench", "unknown_knob": 3}`,
		`not json`,
		`{"mesh":"trench","scale":0.0005,"cycles":5} {"cycles":-1} garbage`,
		`{"mesh":"trench","scale":0.0005,"sponge":{"width":-1,"strength":-3}}`,
		`{"mesh":"trench","scale":0.0005,"sponge":{"width":0,"strength":2}}`,
	}
	for _, body := range cases {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.Submitted != 0 {
		t.Errorf("invalid requests were enqueued: %+v", st)
	}
}

// TestPriorityOrdering: with the dispatcher pinned, a later high-priority
// job runs before earlier low-priority ones.
func TestPriorityOrdering(t *testing.T) {
	s := mustNew(t, Config{MaxQueue: 8, Concurrency: 1, WorkerBudget: 1})
	defer s.Close()

	blocker := tinyReq()
	blocker.Cycles = 100000
	bj, err := s.Submit(blocker)
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	for i := 0; bj.StateNow() != StateRunning; i++ {
		if i > 1000 {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	low, err := s.Submit(tinyReq())
	if err != nil {
		t.Fatalf("low: %v", err)
	}
	hiReq := tinyReq()
	hiReq.Priority = 5
	hi, err := s.Submit(hiReq)
	if err != nil {
		t.Fatalf("hi: %v", err)
	}
	s.Cancel(bj.ID)
	waitTerminal(t, hi)
	if low.StateNow() == StateDone && hi.StateNow() != StateDone {
		t.Error("low-priority job completed before high-priority job started")
	}
	// The high-priority job must have started no later than the
	// low-priority one.
	hiSn, lowSn := hi.snapshot(), low.snapshot()
	waitTerminal(t, low)
	if hiSn.Started == nil {
		t.Fatal("high-priority job never started")
	}
	if lowSn.Started != nil && lowSn.Started.Before(*hiSn.Started) {
		t.Error("low-priority job dispatched before high-priority job")
	}
}

// TestServerClose: Close cancels queued and running jobs and Submit
// afterwards reports ErrClosed.
func TestServerClose(t *testing.T) {
	s := mustNew(t, Config{MaxQueue: 4, Concurrency: 1, WorkerBudget: 1})
	blocker := tinyReq()
	blocker.Cycles = 100000
	bj, err := s.Submit(blocker)
	if err != nil {
		t.Fatalf("blocker: %v", err)
	}
	for i := 0; bj.StateNow() != StateRunning; i++ {
		if i > 1000 {
			t.Fatal("blocker never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	qj, err := s.Submit(tinyReq())
	if err != nil {
		t.Fatalf("queued: %v", err)
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(60 * time.Second):
		t.Fatal("Close did not drain")
	}
	if st := bj.StateNow(); st != StateCancelled {
		t.Errorf("running job after Close: %s", st)
	}
	if st := qj.StateNow(); st != StateCancelled {
		t.Errorf("queued job after Close: %s", st)
	}
	if _, err := s.Submit(tinyReq()); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Submit after Close: %v", err)
	}
}

// TestAutoTuneJobs: with Config.AutoTune set, jobs are placed with a
// calibrated deployment shape, the plan is cached so a same-config job
// reuses it without re-probing, and GET /stats lists each job's tuned
// shape.
func TestAutoTuneJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probes skipped in -short")
	}
	s := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1, AutoTune: 30 * time.Second})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, sn1 := postJob(t, ts.URL, tinyReq())
	j1, _ := s.Job(sn1.ID)
	waitTerminal(t, j1)
	if st := j1.StateNow(); st != StateDone {
		t.Fatalf("tuned job finished %s (%s)", st, j1.snapshot().Error)
	}
	st1 := j1.snapshot().Stats
	if st1 == nil || st1.TunedWorkers < 1 {
		t.Fatalf("tuned job carries no plan: %+v", st1)
	}
	if st1.Workers != st1.TunedWorkers {
		t.Errorf("tuned shape not applied: ran %d workers, plan %d", st1.Workers, st1.TunedWorkers)
	}

	// Second identical job: the cached plan is reused (one tune artifact,
	// no second probe sweep) and reports the same shape.
	misses := s.Stats().Cache.Misses
	_, sn2 := postJob(t, ts.URL, tinyReq())
	j2, _ := s.Job(sn2.ID)
	waitTerminal(t, j2)
	st2 := j2.snapshot().Stats
	if st2 == nil || st2.TunedWorkers != st1.TunedWorkers {
		t.Errorf("cached plan not reused: %+v vs %+v", st2, st1)
	}
	if d := s.Stats().Cache.Misses - misses; d != 0 {
		t.Errorf("second same-config job rebuilt %d artifacts, want 0", d)
	}

	stats := getStats(t, ts.URL)
	if len(stats.Jobs) != 2 {
		t.Fatalf("stats lists %d jobs, want 2: %+v", len(stats.Jobs), stats.Jobs)
	}
	for _, js := range stats.Jobs {
		if js.TunedWorkers != st1.TunedWorkers {
			t.Errorf("job %s tuned_workers %d, want %d", js.ID, js.TunedWorkers, st1.TunedWorkers)
		}
		if js.State != StateDone {
			t.Errorf("job %s state %s in summary", js.ID, js.State)
		}
	}
}

// TestCacheBoundedInBytes runs eight distinct configurations through a
// cache that holds about three: after every job GET /stats reports the
// resident bytes within the budget (or one entry alone above it), the
// first configuration has been evicted and is rebuilt when it comes
// back, and its repeat then hits for every artifact.
func TestCacheBoundedInBytes(t *testing.T) {
	const budget = 4 << 20 // a tiny configuration holds 1.1–1.7 MiB
	s := mustNew(t, Config{Concurrency: 1, WorkerBudget: 1, CacheBytes: budget})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	run := func(scale float64) StatsResponse {
		t.Helper()
		req := tinyReq()
		req.Scale = scale
		_, sn := postJob(t, ts.URL, req)
		j, _ := s.Job(sn.ID)
		waitTerminal(t, j)
		if st := j.StateNow(); st != StateDone {
			t.Fatalf("scale %g: job %s (%s)", scale, st, j.snapshot().Error)
		}
		st := getStats(t, ts.URL)
		if st.Cache.BudgetBytes != budget {
			t.Fatalf("budget_bytes = %d, want %d", st.Cache.BudgetBytes, budget)
		}
		if st.Cache.Bytes > budget && st.Cache.Entries != 1 {
			t.Fatalf("scale %g: %d resident bytes in %d entries over a %d budget", scale, st.Cache.Bytes, st.Cache.Entries, budget)
		}
		return st
	}
	scales := []float64{0.0005, 0.0006, 0.0007, 0.0008, 0.0009, 0.0010, 0.0011, 0.0012}
	var last StatsResponse
	for _, sc := range scales {
		last = run(sc)
	}
	before := run(scales[0]).Cache
	if before.Misses == last.Cache.Misses {
		t.Fatalf("the first configuration stayed resident through seven others: %+v", before)
	}
	st := run(scales[0]).Cache
	if st.Misses != before.Misses || st.Hits == before.Hits {
		t.Errorf("repeat of a resident configuration: misses %d → %d, hits %d → %d; want every artifact a hit",
			before.Misses, st.Misses, before.Hits, st.Hits)
	}
}

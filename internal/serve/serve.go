// Package serve is the long-running simulation service behind cmd/waved:
// an HTTP/JSON job API over the wave facade with a bounded priority
// queue, per-job cancellation, and a process-wide artifact cache keyed
// by canonical configuration hash.
//
// Lifecycle: POST /jobs enqueues a simulation and returns its id; the
// dispatcher runs up to Concurrency jobs at once, each admitted against
// a shared worker budget; GET /jobs/{id} polls state and final
// wave.Stats; GET /jobs/{id}/rows streams seismogram CSV rows as they
// are produced (byte-identical to the wave.CSVSink encoding, and — via
// the artifact cache — bitwise identical between cold and cache-hit
// runs of one configuration); DELETE /jobs/{id} cancels a queued or
// running job, releasing its queue slot immediately. GET /healthz and
// GET /stats expose liveness and the queue/cache counters.
//
// Identical configurations share build artifacts (mesh, operator,
// partition, batch plans) through a single wave.ArtifactCache with
// single-flight construction: two same-config jobs submitted
// concurrently build each artifact exactly once. The cache holds at most
// Config.CacheBytes of them, so one-off configurations are evicted
// rather than kept for the life of the process.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"container/heap"

	"golts/internal/ckpt"
	"golts/internal/decomp"
	"golts/internal/simio"
	"golts/wave"
)

// Config sizes a Server. Zero values select the documented defaults.
type Config struct {
	// MaxQueue bounds the pending queue; submissions beyond it are
	// rejected with 429. Default 64.
	MaxQueue int
	// Concurrency is the number of simulations run simultaneously.
	// Default 2.
	Concurrency int
	// WorkerBudget is the total shared-memory worker count divided among
	// the in-flight simulations: a job demanding w workers is dispatched
	// only when w fit the remaining budget. Default max(Concurrency,
	// GOMAXPROCS is deliberately NOT consulted — the budget is explicit
	// so results stay machine-independent).
	WorkerBudget int
	// CacheBytes bounds the artifact cache's resident bytes. Default
	// wave.DefaultArtifactCacheBytes.
	CacheBytes int64
	// SpoolDir enables durability: job specs, per-job simulation
	// checkpoints and streamed rows are persisted under it, unfinished
	// jobs replay on the next New with the same directory, and a job
	// whose checkpoint survived resumes mid-run with its already-streamed
	// rows preserved byte for byte. Empty disables.
	SpoolDir string
	// CheckpointEvery is the per-job checkpoint interval in cycles when
	// SpoolDir is set (default 4).
	CheckpointEvery int
	// RetryBaseDelay is the first retry's backoff for jobs that fail with
	// an infrastructure error; it doubles per retry, capped at 30 s.
	// Default 500 ms.
	RetryBaseDelay time.Duration
	// AutoTune, when positive, runs every job under wave.WithAutoTune
	// with this probing budget: the first build of each configuration
	// calibrates a deployment shape (the worker count) and the plan is
	// cached in the shared artifact cache, so same-config jobs pay the
	// probes once. Zero disables tuning (jobs run at their requested
	// worker count). Note the budget accounting still charges each job its
	// requested Workers — the tuned count applies inside the simulation.
	AutoTune time.Duration
}

// ErrQueueFull is returned by Submit when the pending queue is at
// capacity; the HTTP layer maps it to 429 Too Many Requests.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("serve: server closed")

// JobRequest is the POST /jobs payload: a simulation configuration (the
// cmd/wavesim JSON format) plus execution settings. Workers,
// Partitioner and Seed pin the decomposition and thus the result bits;
// they are part of the canonical config hash. Priority only orders the
// queue and is excluded from the hash.
type JobRequest struct {
	simio.Config
	// Priority orders pending jobs (higher first, FIFO within a class).
	Priority int `json:"priority"`
	// Workers is the shared-memory worker count (default 1; must fit the
	// server's WorkerBudget).
	Workers int `json:"workers"`
	// Partitioner names the element-partitioning strategy (default
	// "scotch-p").
	Partitioner string `json:"partitioner"`
	// Seed is the partitioner seed (default 1).
	Seed int64 `json:"seed"`
	// MaxRetries is how many times an infrastructure failure (anything
	// that is not a typed configuration rejection) is retried with
	// exponential backoff before the job fails for good. Excluded from
	// the canonical hash: it does not affect results.
	MaxRetries int `json:"max_retries"`
	// Ranks, when positive, runs the job on the distributed backend with
	// this many spawned rank processes, decomposed at Workers parts — the
	// decomposition, not the process count, pins the assembly order, so
	// the rows are byte-identical to the local run of the same request.
	// Excluded from the canonical hash for the same reason. Requires
	// Workers >= Ranks.
	Ranks int `json:"ranks"`
	// MinRanks, when positive, enables degraded mode for a distributed
	// job: a rank that exhausts its recovery budget is retired and its
	// parts are redistributed onto the survivors, down to this floor.
	// Excluded from the canonical hash (results stay bitwise identical).
	MinRanks int `json:"min_ranks"`
	// MaxRecoveries bounds rank-failure recoveries per rank configuration
	// for a distributed job (0: backend default). Excluded from the
	// canonical hash.
	MaxRecoveries int `json:"max_recoveries"`
}

// distBackend is the distributed backend a Ranks > 0 request resolves
// to: Parts is pinned to Workers so the decomposition (and therefore
// every result bit) matches the local run of the same request.
func (r *JobRequest) distBackend() wave.Distributed {
	return wave.Distributed{
		Ranks:         r.Ranks,
		Parts:         r.Workers,
		MaxRecoveries: r.MaxRecoveries,
		MinRanks:      r.MinRanks,
	}
}

// decodeJobRequest decodes a POST /jobs body; unknown fields and trailing
// data are errors.
func decodeJobRequest(r io.Reader) (JobRequest, error) {
	var req JobRequest
	err := simio.DecodeStrict(r, &req)
	return req, err
}

// canonicalize fills defaults so equal configurations hash equally, and
// validates everything an eager 400 should catch.
func (r *JobRequest) canonicalize() error {
	if err := r.Config.Validate(); err != nil {
		return err
	}
	if r.Workers == 0 {
		r.Workers = 1
	}
	if r.Partitioner == "" {
		r.Partitioner = string(wave.ScotchP)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Ranks < 0 {
		return fmt.Errorf("serve: ranks %d out of range", r.Ranks)
	}
	if r.MaxRecoveries < 0 {
		return fmt.Errorf("serve: max_recoveries %d out of range", r.MaxRecoveries)
	}
	if r.MinRanks > 0 && r.Ranks == 0 {
		return fmt.Errorf("serve: min_ranks requires ranks > 0")
	}
	execOpt := wave.WithWorkers(r.Workers)
	if r.Ranks > 0 {
		// The distributed backend refuses WithWorkers > 1; Workers becomes
		// the decomposition width instead (Parts), so it must cover Ranks.
		execOpt = wave.WithBackend(r.distBackend())
	}
	return wave.Validate(
		wave.WithMesh(r.Mesh, r.Scale),
		execOpt,
		wave.WithPartitioner(wave.Partitioner(r.Partitioner)),
		wave.WithSeed(r.Seed),
	)
}

// hash is the canonical content hash: sha256 over the JSON encoding of
// every result-determining field (priority excluded).
func (r *JobRequest) hash() string {
	keyed := struct {
		Config      simio.Config `json:"config"`
		Workers     int          `json:"workers"`
		Partitioner string       `json:"partitioner"`
		Seed        int64        `json:"seed"`
	}{r.Config, r.Workers, r.Partitioner, r.Seed}
	raw, _ := json.Marshal(keyed)
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// Server owns the job queue, the dispatcher goroutines and the shared
// artifact cache. Create with New, serve its Handler, stop with Close.
type Server struct {
	cfg   Config
	cache *wave.ArtifactCache

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu        sync.Mutex
	cond      *sync.Cond
	pending   jobHeap
	jobs      map[string]*Job
	nextID    int64
	nextSeq   int64
	inFlight  int
	availWork int
	closed    bool

	spool *spool

	submitted, done, failed, cancelled int64
	replayed, retried, resumed         int64
	checkpoints, recoveries            int64
	degraded, corruptFrames            int64
	linkRetries                        int64

	// testRunFault, when set, is invoked before each attempt's Run; a
	// non-nil return is treated as that attempt's infrastructure failure.
	// Test hook only.
	testRunFault func(j *Job, attempt int) error
}

// New creates a Server and starts its dispatcher goroutines. With
// Config.SpoolDir set it first replays every job spec persisted by a
// previous instance: replayed jobs re-enter the queue in their original
// submission order (and resume from their spooled checkpoint when they
// reach a dispatcher).
func New(cfg Config) (*Server, error) {
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 2
	}
	if cfg.WorkerBudget <= 0 {
		cfg.WorkerBudget = cfg.Concurrency
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 4
	}
	if cfg.RetryBaseDelay <= 0 {
		cfg.RetryBaseDelay = 500 * time.Millisecond
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = wave.DefaultArtifactCacheBytes
	}
	s := &Server{
		cfg:       cfg,
		cache:     wave.NewArtifactCache(cfg.CacheBytes),
		jobs:      make(map[string]*Job),
		availWork: cfg.WorkerBudget,
	}
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	if cfg.SpoolDir != "" {
		sp, err := newSpool(cfg.SpoolDir)
		if err != nil {
			return nil, err
		}
		s.spool = sp
		s.replay()
	}
	for i := 0; i < cfg.Concurrency; i++ {
		s.wg.Add(1)
		go s.dispatch()
	}
	return s, nil
}

// replay re-enqueues every spooled job spec, before the dispatchers
// start. Specs that no longer validate are dropped from the spool.
func (s *Server) replay() {
	for _, sj := range s.spool.loadJobs() {
		req := sj.Req
		if err := req.canonicalize(); err != nil || req.Workers > s.cfg.WorkerBudget {
			s.spool.remove(sj.ID)
			continue
		}
		if n := jobNum(sj.ID); n > s.nextID {
			s.nextID = n
		}
		s.nextSeq++
		j := &Job{
			ID:       sj.ID,
			Hash:     req.hash(),
			req:      req,
			workers:  req.Workers,
			seq:      s.nextSeq,
			heapIdx:  -1,
			rows:     newRowBuffer(),
			state:    StateQueued,
			enqueued: time.Now(),
			done:     make(chan struct{}),
			retries:  sj.Retries,
		}
		s.jobs[j.ID] = j
		heap.Push(&s.pending, j)
		s.replayed++
	}
}

// Close stops accepting jobs and waits for the dispatchers to drain.
// Without a spool, everything queued or running is cancelled. With one,
// pending and interrupted jobs keep their spool entries (their in-memory
// state stays queued, untouched) so a successor server replays them —
// Close is the graceful half of a restart, not a discard.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for s.pending.Len() > 0 {
		j := heap.Pop(&s.pending).(*Job)
		if s.spool != nil {
			continue // spec stays spooled for the next instance
		}
		s.cancelled++
		j.finish(StateCancelled, "server shutting down")
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.stop() // cancels the contexts of running jobs
	s.wg.Wait()
}

// Submit validates, enqueues and returns a new job. The request is
// canonicalized in place (defaults filled).
func (s *Server) Submit(req JobRequest) (*Job, error) {
	if err := req.canonicalize(); err != nil {
		return nil, err
	}
	if req.Workers > s.cfg.WorkerBudget {
		return nil, fmt.Errorf("serve: job demands %d workers, budget is %d", req.Workers, s.cfg.WorkerBudget)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.pending.Len() >= s.cfg.MaxQueue {
		return nil, ErrQueueFull
	}
	s.nextID++
	s.nextSeq++
	j := &Job{
		ID:       "j" + strconv.FormatInt(s.nextID, 10),
		Hash:     req.hash(),
		req:      req,
		workers:  req.Workers,
		seq:      s.nextSeq,
		heapIdx:  -1,
		rows:     newRowBuffer(),
		state:    StateQueued,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	if s.spool != nil {
		if err := s.spool.saveJob(spoolJob{ID: j.ID, Req: req}); err != nil {
			s.nextID--
			s.nextSeq--
			return nil, err
		}
	}
	s.jobs[j.ID] = j
	heap.Push(&s.pending, j)
	s.submitted++
	s.cond.Signal()
	return j, nil
}

// Job returns a submitted job by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job: a queued job leaves the queue (releasing its
// slot) and finishes Cancelled immediately; a running job's context is
// cancelled and it finishes as the run winds down. Returns false for
// unknown ids.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	if s.pending.remove(j) {
		s.cancelled++
		s.mu.Unlock()
		if s.spool != nil {
			s.spool.remove(j.ID)
		}
		j.finish(StateCancelled, "cancelled while queued")
		return true
	}
	s.mu.Unlock()
	j.mu.Lock()
	if j.cancelRun != nil {
		j.cancelRun()
	}
	j.mu.Unlock()
	return true
}

// dispatch is one runner goroutine: it pulls the best pending job that
// fits the remaining worker budget and runs it to completion.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		var j *Job
		for {
			if s.closed {
				s.mu.Unlock()
				return
			}
			if j = s.pending.popFit(s.availWork, time.Now()); j != nil {
				break
			}
			s.cond.Wait()
		}
		s.inFlight++
		s.availWork -= j.workers
		s.mu.Unlock()

		s.runJob(j)

		s.mu.Lock()
		s.inFlight--
		s.availWork += j.workers
		switch j.StateNow() {
		case StateDone:
			s.done++
		case StateFailed:
			s.failed++
		case StateCancelled:
			s.cancelled++
		}
		// A freed worker may unblock a wide job another dispatcher skipped.
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// runJob executes one attempt of a job: build (or resume), run, then
// classify the outcome — done, cancelled, parked for replay (spooled
// shutdown), retried with backoff (infrastructure failure), or failed
// for good (configuration rejection / exhausted retries).
func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()

	j.mu.Lock()
	if j.state.Terminal() { // cancelled between pop and here
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancelRun = cancel
	attempt := j.retries
	j.mu.Unlock()

	runErr := s.runSim(ctx, j, attempt)

	switch {
	case runErr == nil:
		if s.spool != nil {
			s.spool.remove(j.ID)
		}
		j.finish(StateDone, "")
	case errors.Is(runErr, context.Canceled):
		if s.spool != nil && s.isClosed() {
			// Shutdown, not a user cancellation: park the job queued; its
			// spool entry (and newest checkpoint) replays on the next start.
			j.mu.Lock()
			j.cancelRun = nil
			j.state = StateQueued
			j.mu.Unlock()
			return
		}
		if s.spool != nil {
			s.spool.remove(j.ID)
		}
		j.finish(StateCancelled, "cancelled while running")
	default:
		s.failJob(j, runErr)
	}
}

// runSim performs one simulation attempt. With a spool it resumes from
// the job's persisted checkpoint when one exists (trimming the rows file
// to the checkpoint cycle and preloading those rows into the stream
// buffer, so the delivered bytes stay identical to an uninterrupted
// run), streams every new row to disk before the facade checkpoints the
// cycle, and checkpoints every Config.CheckpointEvery cycles.
func (s *Server) runSim(ctx context.Context, j *Job, attempt int) error {
	cfgJSON, err := json.Marshal(j.req.Config)
	if err != nil {
		return &wave.OptionError{Option: "FromConfig", Err: err}
	}
	opts, err := wave.ConfigOptions(bytes.NewReader(cfgJSON))
	if err != nil {
		return &wave.OptionError{Option: "FromConfig", Err: err}
	}
	execOpt := wave.WithWorkers(j.req.Workers)
	if j.req.Ranks > 0 {
		execOpt = wave.WithBackend(j.req.distBackend())
	}
	opts = append(opts,
		execOpt,
		wave.WithPartitioner(wave.Partitioner(j.req.Partitioner)),
		wave.WithSeed(j.req.Seed),
		wave.WithArtifactCache(s.cache),
	)
	if s.cfg.AutoTune > 0 {
		opts = append(opts, wave.WithAutoTune(s.cfg.AutoTune))
	}

	// A retry rebuilds the stream, so the buffer restarts empty (and is
	// refilled from the spooled prefix on resume).
	j.rows.reset()

	var sim *wave.Simulation
	var rowsFile *os.File
	if s.spool == nil {
		sim, err = wave.New(append(opts, wave.WithSink(wave.RowCSVSink(j.rows.append)))...)
		if err != nil {
			return err
		}
	} else {
		var preload [][]byte
		sim, preload, rowsFile, err = s.buildSpooled(j, opts)
		if err != nil {
			return err
		}
		defer rowsFile.Close()
		for _, row := range preload {
			j.rows.append(row)
		}
	}

	if s.testRunFault != nil {
		if ferr := s.testRunFault(j, attempt); ferr != nil {
			sim.Close()
			return ferr
		}
	}

	runErr := sim.Run(ctx, 0)
	stats := sim.Stats()
	closeErr := sim.Close()

	j.mu.Lock()
	j.stats = stats
	j.hasStats = true
	j.mu.Unlock()
	s.mu.Lock()
	s.checkpoints += stats.Checkpoints
	s.recoveries += int64(stats.Recoveries)
	s.degraded += int64(stats.DegradedRanks)
	s.corruptFrames += stats.CorruptFrames
	s.linkRetries += stats.LinkRetries
	s.mu.Unlock()

	if runErr != nil {
		return runErr
	}
	return closeErr
}

// buildSpooled constructs the attempt's simulation against the spool:
// resumed from the persisted checkpoint when it is usable (returning the
// trimmed row prefix for the stream buffer), from scratch otherwise. The
// simulation's row sink appends to the spooled rows file before the
// row enters the in-memory buffer — and, by the facade's ordering,
// before the cycle's checkpoint is written.
func (s *Server) buildSpooled(j *Job, opts []wave.Option) (*wave.Simulation, [][]byte, *os.File, error) {
	ckptPath := s.spool.ckptPath(j.ID)
	rowsPath := s.spool.rowsPath(j.ID)
	opts = append(opts, wave.WithCheckpointEvery(ckptPath, s.cfg.CheckpointEvery))

	// skip swallows the duplicate header a resumed simulation's sink
	// emits on Open; the spooled prefix already carries one.
	skip := 0
	var rf *os.File
	rowFn := func(row []byte) error {
		if skip > 0 {
			skip--
			return nil
		}
		if _, err := rf.Write(row); err != nil {
			return err
		}
		return j.rows.append(row)
	}
	sinkOpt := wave.WithSink(wave.RowCSVSink(rowFn))

	var preload [][]byte
	var sim *wave.Simulation
	if f, err := ckpt.ReadFile(ckptPath); err == nil {
		if meta, err := f.Meta(); err == nil {
			if rows, ok := s.spool.trimRows(j.ID, 1+int(meta.Cycle)); ok {
				if rsim, rerr := wave.Resume(ckptPath, append(opts, sinkOpt)...); rerr == nil {
					sim = rsim
					preload = rows
					skip = 1
					s.mu.Lock()
					s.resumed++
					s.mu.Unlock()
				}
			}
		}
	}
	if sim == nil {
		// No checkpoint, or one this configuration can no longer use:
		// scrap the partial state and recompute from cycle 0.
		os.Remove(ckptPath)
		os.Remove(rowsPath)
		var err error
		sim, err = wave.New(append(opts, sinkOpt)...)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	f, err := os.OpenFile(rowsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		sim.Close()
		return nil, nil, nil, err
	}
	rf = f
	return sim, preload, f, nil
}

// failJob classifies a failed attempt. A typed configuration rejection
// (*wave.OptionError) can never succeed on retry and fails immediately
// with kind "config"; anything else is infrastructure, retried with
// exponential backoff while the budget lasts, then failed with kind
// "infra".
func (s *Server) failJob(j *Job, cause error) {
	var oe *wave.OptionError
	if errors.As(cause, &oe) {
		if s.spool != nil {
			s.spool.remove(j.ID)
		}
		j.failTerminal("config", cause.Error())
		return
	}
	j.mu.Lock()
	retries := j.retries
	j.mu.Unlock()
	if retries < j.req.MaxRetries && !s.isClosed() {
		delay := s.cfg.RetryBaseDelay << retries
		if max := 30 * time.Second; delay > max {
			delay = max
		}
		j.mu.Lock()
		j.retries++
		j.err = cause.Error()
		j.errKind = "infra"
		j.state = StateQueued
		j.cancelRun = nil
		j.notBefore = time.Now().Add(delay)
		j.mu.Unlock()
		if s.spool != nil {
			s.spool.saveJob(spoolJob{ID: j.ID, Retries: retries + 1, Req: j.req})
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		heap.Push(&s.pending, j)
		s.retried++
		s.mu.Unlock()
		time.AfterFunc(delay, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		return
	}
	if s.spool != nil {
		s.spool.remove(j.ID)
	}
	j.failTerminal("infra", cause.Error())
}

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// StatsResponse is the GET /stats payload.
type StatsResponse struct {
	// QueueDepth is the number of pending jobs; InFlight the number
	// currently running.
	QueueDepth int `json:"queue_depth"`
	InFlight   int `json:"in_flight"`
	// WorkerBudget / WorkersInUse report the shared worker pool.
	WorkerBudget int `json:"worker_budget"`
	WorkersInUse int `json:"workers_in_use"`
	// Submitted/Done/Failed/Cancelled are lifetime job counts.
	Submitted int64 `json:"submitted"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	// Durability counters (all zero without a spool): Replayed jobs were
	// re-enqueued from a previous instance's spool, Retried counts backoff
	// retries after infrastructure failures, Resumed counts attempts that
	// restarted mid-run from a spooled checkpoint. Checkpoints and
	// Recoveries aggregate wave.Stats over every completed attempt.
	Replayed    int64 `json:"replayed"`
	Retried     int64 `json:"retried"`
	Resumed     int64 `json:"resumed"`
	Checkpoints int64 `json:"checkpoints"`
	Recoveries  int64 `json:"recoveries"`
	// DegradedRanks aggregates the ranks permanently retired across every
	// completed attempt (zero unless distributed jobs ran degraded);
	// CorruptFrames counts wire frames rejected by CRC and LinkRetries the
	// connection attempts retried with backoff, both summed the same way.
	DegradedRanks int64 `json:"degraded_ranks"`
	CorruptFrames int64 `json:"corrupt_frames"`
	LinkRetries   int64 `json:"link_retries"`
	// Jobs lists, per completed attempt, the tuned deployment shape and
	// the ranks lost — the observable effect of Config.AutoTune and of
	// degraded mode on each job.
	Jobs []JobSummary `json:"jobs,omitempty"`
	// Cache reports the artifact cache: traffic counters plus residency
	// (entries, their bytes, and the budget those bytes are bounded by).
	Cache struct {
		decomp.MemoCounters
		Entries     int   `json:"entries"`
		Bytes       int64 `json:"bytes"`
		BudgetBytes int64 `json:"budget_bytes"`
	} `json:"cache"`
}

// JobSummary is one job's tuning line in the /stats payload. Jobs whose
// attempts have not produced stats yet (queued, still running their
// first attempt) are omitted.
type JobSummary struct {
	ID           string `json:"id"`
	State        State  `json:"state"`
	TunedWorkers int    `json:"tuned_workers,omitempty"`
	TunedRanks   int    `json:"tuned_ranks,omitempty"`
	// DegradedRanks is how many ranks the job's distributed run retired
	// permanently (degraded mode); zero for local and fault-free runs.
	DegradedRanks int `json:"degraded_ranks,omitempty"`
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() StatsResponse {
	s.mu.Lock()
	resp := StatsResponse{
		QueueDepth:    s.pending.Len(),
		InFlight:      s.inFlight,
		WorkerBudget:  s.cfg.WorkerBudget,
		WorkersInUse:  s.cfg.WorkerBudget - s.availWork,
		Submitted:     s.submitted,
		Done:          s.done,
		Failed:        s.failed,
		Cancelled:     s.cancelled,
		Replayed:      s.replayed,
		Retried:       s.retried,
		Resumed:       s.resumed,
		Checkpoints:   s.checkpoints,
		Recoveries:    s.recoveries,
		DegradedRanks: s.degraded,
		CorruptFrames: s.corruptFrames,
		LinkRetries:   s.linkRetries,
	}
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.hasStats {
			resp.Jobs = append(resp.Jobs, JobSummary{
				ID:            j.ID,
				State:         j.state,
				TunedWorkers:  j.stats.TunedWorkers,
				TunedRanks:    j.stats.TunedRanks,
				DegradedRanks: j.stats.DegradedRanks,
			})
		}
		j.mu.Unlock()
	}
	s.mu.Unlock()
	sort.Slice(resp.Jobs, func(a, b int) bool {
		return jobNum(resp.Jobs[a].ID) < jobNum(resp.Jobs[b].ID)
	})
	resp.Cache.MemoCounters = s.cache.Counters()
	resp.Cache.Entries = s.cache.Len()
	resp.Cache.Bytes = s.cache.Bytes()
	resp.Cache.BudgetBytes = s.cfg.CacheBytes
	return resp
}

// Handler returns the HTTP API. Routes:
//
//	POST   /jobs            submit (202 + {id,hash,state}; 429 when full)
//	GET    /jobs/{id}       job status + final stats
//	GET    /jobs/{id}/rows  stream seismogram CSV rows (text/csv)
//	DELETE /jobs/{id}       cancel
//	GET    /healthz         liveness
//	GET    /stats           queue depth, in-flight, cache counters and bytes
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST /jobs")
			return
		}
		req, err := decodeJobRequest(r.Body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "malformed request: "+err.Error())
			return
		}
		j, err := s.Submit(req)
		switch {
		case errors.Is(err, ErrQueueFull):
			httpError(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, ErrClosed):
			httpError(w, http.StatusServiceUnavailable, err.Error())
		case err != nil:
			httpError(w, http.StatusBadRequest, err.Error())
		default:
			writeJSON(w, http.StatusAccepted, j.snapshot())
		}
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
		id, sub, _ := strings.Cut(rest, "/")
		j, ok := s.Job(id)
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job "+id)
			return
		}
		switch {
		case sub == "" && r.Method == http.MethodGet:
			writeJSON(w, http.StatusOK, j.snapshot())
		case sub == "" && r.Method == http.MethodDelete:
			s.Cancel(id)
			writeJSON(w, http.StatusOK, j.snapshot())
		case sub == "rows" && r.Method == http.MethodGet:
			s.streamRows(w, r, j)
		default:
			httpError(w, http.StatusNotFound, "unknown route")
		}
	})
	return mux
}

// streamRows writes the job's CSV rows to the client as they appear:
// the retained prefix first, then live rows until the job reaches a
// terminal state or the client disconnects. Concatenated rows are
// byte-identical to a wave.CSVSink file of the same run.
func (s *Server) streamRows(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		rows, done, wait := j.rows.next(sent)
		if len(rows) > 0 {
			for _, row := range rows {
				if _, err := w.Write(row); err != nil {
					return
				}
			}
			sent += len(rows)
			if flusher != nil {
				flusher.Flush()
			}
			continue
		}
		if done {
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

package serve

import (
	"context"
	"sync"
	"time"

	"golts/wave"
)

// State is a job's lifecycle phase.
type State string

// The job lifecycle: Queued → Running → one of Done / Failed /
// Cancelled. A queued job cancelled before dispatch goes straight to
// Cancelled.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one submitted simulation. All mutable fields are guarded by mu;
// the identity fields (ID, Hash, req, seq) are immutable after Submit.
type Job struct {
	ID   string
	Hash string // canonical config hash (artifact-cache key space)

	req     JobRequest
	workers int   // resolved worker demand against the server budget
	seq     int64 // FIFO tiebreak within a priority class
	heapIdx int   // index in the pending heap; -1 once dispatched

	rows *rowBuffer

	mu        sync.Mutex
	state     State
	err       string
	errKind   string // "config" (never retried) or "infra" (retried)
	stats     wave.Stats
	hasStats  bool
	enqueued  time.Time
	started   time.Time
	finished  time.Time
	cancelRun context.CancelFunc // set while running
	done      chan struct{}      // closed on any terminal transition

	// retries counts completed failed attempts; notBefore delays the next
	// dispatch (exponential backoff). Both are written only while the job
	// is out of the pending heap.
	retries   int
	notBefore time.Time
}

// snapshot is the wire form of a job's status.
type snapshot struct {
	ID        string      `json:"id"`
	Hash      string      `json:"hash"`
	State     State       `json:"state"`
	Error     string      `json:"error,omitempty"`
	ErrorKind string      `json:"error_kind,omitempty"`
	Retries   int         `json:"retries,omitempty"`
	Rows      int         `json:"rows"`
	Enqueued  time.Time   `json:"enqueued"`
	Started   *time.Time  `json:"started,omitempty"`
	Finished  *time.Time  `json:"finished,omitempty"`
	Stats     *wave.Stats `json:"stats,omitempty"`
	// DegradedRanks surfaces permanent rank retirements (degraded mode)
	// without making clients dig through Stats.
	DegradedRanks int `json:"degraded_ranks,omitempty"`
}

func (j *Job) snapshot() snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	sn := snapshot{
		ID:        j.ID,
		Hash:      j.Hash,
		State:     j.state,
		Error:     j.err,
		ErrorKind: j.errKind,
		Retries:   j.retries,
		Rows:      j.rows.len(),
		Enqueued:  j.enqueued,
	}
	if !j.started.IsZero() {
		t := j.started
		sn.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		sn.Finished = &t
	}
	if j.hasStats {
		st := j.stats
		sn.Stats = &st
		sn.DegradedRanks = st.DegradedRanks
	}
	return sn
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state State, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.err = errMsg
	if errMsg == "" {
		// A clean finish clears classification left by retried attempts.
		j.errKind = ""
	}
	j.finished = time.Now()
	j.cancelRun = nil
	close(j.done)
	j.rows.closeBuf()
}

// failTerminal finishes the job Failed with an error classification.
func (j *Job) failTerminal(kind, msg string) {
	j.mu.Lock()
	j.errKind = kind
	j.mu.Unlock()
	j.finish(StateFailed, msg)
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// StateNow returns the job's current state.
func (j *Job) StateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// rowBuffer retains every CSV row a job has produced and broadcasts
// appends to streaming subscribers with a channel-swap: each append
// closes the current wait channel and installs a fresh one, so any
// number of subscribers wake without the buffer tracking them.
type rowBuffer struct {
	mu     sync.Mutex
	rows   [][]byte
	nbytes int
	closed bool
	wait   chan struct{}
}

func newRowBuffer() *rowBuffer { return &rowBuffer{wait: make(chan struct{})} }

// append copies and retains one row (the wave.RowCSVSink callback: the
// passed slice is reused by the sink).
func (b *rowBuffer) append(row []byte) error {
	cp := append([]byte(nil), row...)
	b.mu.Lock()
	b.rows = append(b.rows, cp)
	b.nbytes += len(cp)
	w := b.wait
	b.wait = make(chan struct{})
	b.mu.Unlock()
	close(w)
	return nil
}

// reset drops every retained row, for a retry that rebuilds the stream
// (from scratch or from the preloaded checkpoint prefix). The wait
// channel stays armed so subscribers simply see the stream grow again.
func (b *rowBuffer) reset() {
	b.mu.Lock()
	b.rows = nil
	b.nbytes = 0
	b.mu.Unlock()
}

// closeBuf marks the stream complete and wakes all subscribers. Safe to
// call more than once.
func (b *rowBuffer) closeBuf() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	w := b.wait
	b.mu.Unlock()
	close(w)
}

func (b *rowBuffer) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.rows)
}

// next returns the rows at index from onward. When no new rows exist it
// returns (nil, done, wait): done means the stream is complete; wait is
// closed on the next append (or close) otherwise.
func (b *rowBuffer) next(from int) (rows [][]byte, done bool, wait <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from < len(b.rows) {
		return b.rows[from:], false, nil
	}
	return nil, b.closed, b.wait
}

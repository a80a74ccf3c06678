package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"bwpart/internal/exper"
	"bwpart/internal/workload"
)

// JobState names one stage of a job's lifecycle.
type JobState string

// Job lifecycle: Queued -> Running -> one of Done / Failed / Cancelled.
// Cancellation can also strike a job that is still queued. Interrupted is
// the terminal state of jobs recovered from the journal of a previous
// process — they never ran here; POST /v1/jobs/{id}/retry re-enqueues them.
const (
	JobQueued      JobState = "queued"
	JobRunning     JobState = "running"
	JobDone        JobState = "done"
	JobFailed      JobState = "failed"
	JobCancelled   JobState = "cancelled"
	JobInterrupted JobState = "interrupted"
)

// Error kinds distinguish why a job failed (JobSnapshot.ErrorKind):
// a blown deadline, a panic (injected or real), or an ordinary error ("").
const (
	ErrKindDeadline = "deadline"
	ErrKindPanic    = "panic"
)

// Terminal reports whether a state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled || s == JobInterrupted
}

// JobSnapshot is the wire representation of a job's current state, returned
// by GET /v1/jobs/{id} and streamed (one JSON line per change) with
// ?watch=1. Results are included only once the job is done.
type JobSnapshot struct {
	ID         string          `json:"id"`
	Client     string          `json:"client"`
	Kind       string          `json:"kind"` // "mix" or "grid"
	State      JobState        `json:"state"`
	Scale      float64         `json:"scale"`
	CellsTotal int             `json:"cells_total"`
	CellsDone  int             `json:"cells_done"`
	Error      string          `json:"error,omitempty"`
	ErrorKind  string          `json:"error_kind,omitempty"` // "deadline" | "panic" | ""
	Results    []*exper.MixRun `json:"results,omitempty"`
}

// job is one accepted request flowing through the queue. State transitions
// happen under mu and broadcast by replacing the updated channel (closed on
// every change), so any number of watchers can wait for the next change
// without the job tracking subscribers.
type job struct {
	id      string
	client  string
	kind    string
	scale   float64
	mixes   []workload.Mix
	scheme  []string
	timeout time.Duration // effective deadline, 0 = unlimited

	ctx    context.Context
	cancel context.CancelFunc

	mu         sync.Mutex
	state      JobState
	cellsDone  int
	cellsTotal int
	results    []*exper.MixRun
	err        string
	errKind    string
	updated    chan struct{} // closed and replaced on every state change
	done       chan struct{} // closed once, on reaching a terminal state
}

func newJob(id, client, kind string, scale float64, mixes []workload.Mix, schemes []string, timeout time.Duration) *job {
	ctx, cancel := context.WithCancel(context.Background())
	return &job{
		id:         id,
		client:     client,
		kind:       kind,
		scale:      scale,
		mixes:      mixes,
		scheme:     schemes,
		timeout:    timeout,
		ctx:        ctx,
		cancel:     cancel,
		state:      JobQueued,
		cellsTotal: len(mixes) * len(schemes),
		updated:    make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// testHookUpdate, when set, sees the job's snapshot after every applied
// update, under the job lock, so a test can observe each transition that the
// watch stream may coalesce. Unset outside tests.
var testHookUpdate atomic.Pointer[func(JobSnapshot)]

// update applies fn under the job lock and wakes every watcher, reporting
// whether it was applied. Reaching a terminal state also closes done
// (exactly once: transitions out of a terminal state are ignored and report
// false, so a late worker failure cannot re-open a cancelled job, and an
// abandoned deadline-exceeded executor cannot double-finish one).
func (j *job) update(fn func()) bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	fn()
	if hook := testHookUpdate.Load(); hook != nil {
		(*hook)(j.snapshotLocked())
	}
	close(j.updated)
	j.updated = make(chan struct{})
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal {
		close(j.done)
	}
	return true
}

// watch returns the current snapshot plus a channel closed at the next
// change, so a streaming handler can loop snapshot -> wait -> snapshot
// without missing transitions.
func (j *job) watch() (JobSnapshot, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked(), j.updated
}

// snapshot returns the job's current wire state.
func (j *job) snapshot() JobSnapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *job) snapshotLocked() JobSnapshot {
	s := JobSnapshot{
		ID:         j.id,
		Client:     j.client,
		Kind:       j.kind,
		State:      j.state,
		Scale:      j.scale,
		CellsTotal: j.cellsTotal,
		CellsDone:  j.cellsDone,
		Error:      j.err,
		ErrorKind:  j.errKind,
	}
	if j.state == JobDone {
		s.Results = j.results
	}
	return s
}

package serve

import (
	"bytes"
	"encoding/json"
	"log"
	"os"
	"sync"

	"bwpart/internal/faultinject"
	"bwpart/internal/obs"
)

// The job journal is the serve layer's crash-resume record: an append-only
// JSONL file (journal.jsonl in the checkpoint directory) of accepted grid
// jobs and their terminal transitions. After a crash — SIGKILL, OOM, power
// loss — a restarted server replays it: accepted jobs with no terminal record
// materialize as "interrupted" jobs listed by GET /v1/jobs, and POST
// /v1/jobs/{id}/retry re-enqueues one, paying only for the cells whose
// checkpoints never landed. Which cells those are is the checkpoint tier's
// knowledge alone: the journal names jobs, never cells. (Builds up to PR 22
// also wrote one "cell" line per finished cell; replay skips them.)
//
// The journal is an optimization, never a dependency: a write failure
// (injected or real) disables journaling for the process — logged once,
// counted as a checkpoint error — and jobs keep running without it. A torn
// final line (crash mid-append) is skipped at replay.

// journalRecord is one JSONL line. Event selects which fields are set.
type journalRecord struct {
	Event    string   `json:"event"` // "accepted" | "terminal"
	ID       string   `json:"id,omitempty"`
	Client   string   `json:"client,omitempty"`
	Kind     string   `json:"kind,omitempty"`
	Scale    float64  `json:"scale,omitempty"`
	TimeoutS float64  `json:"timeout_s,omitempty"`
	Mixes    []string `json:"mixes,omitempty"`
	Schemes  []string `json:"schemes,omitempty"`
	State    string   `json:"state,omitempty"` // terminal records
}

// journal appends records to the JSONL file. All methods are nil-safe (a
// server without a checkpoint store has no journal).
type journal struct {
	mu       sync.Mutex
	f        *os.File
	col      *obs.Collector
	faults   *faultinject.Injector
	logf     func(format string, args ...any)
	disabled bool
}

// openJournal reads existing records from path (tolerating a torn last
// line), then opens it for appending. The records are returned even when the
// append open fails, so replay still works off a read-only disk.
func openJournal(path string, col *obs.Collector, faults *faultinject.Injector) (*journal, []journalRecord, error) {
	var recs []journalRecord
	if data, err := os.ReadFile(path); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var rec journalRecord
			if json.Unmarshal(line, &rec) != nil {
				continue // torn write from a crash mid-append
			}
			recs = append(recs, rec)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, recs, err
	}
	return &journal{f: f, col: col, faults: faults}, recs, nil
}

// append writes one record, disabling the journal on the first failure.
func (jn *journal) append(rec journalRecord) {
	if jn == nil {
		return
	}
	jn.mu.Lock()
	defer jn.mu.Unlock()
	if jn.disabled {
		return
	}
	if err := jn.faults.Err(faultinject.JournalWrite); err != nil {
		jn.disableLocked(err)
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	if _, err := jn.f.Write(append(data, '\n')); err != nil {
		jn.disableLocked(err)
	}
}

// disableLocked turns journaling off for the rest of the process: logged
// exactly once, counted through the collector. Jobs are unaffected.
func (jn *journal) disableLocked(err error) {
	jn.disabled = true
	jn.col.Add(obs.CheckpointErrors, 1)
	logf := jn.logf
	if logf == nil {
		logf = log.Printf
	}
	logf("serve: job journal write failed; journaling disabled for this process (jobs unaffected, resume records stop here): %v", err)
}

// journaled reports whether a job's accepted and terminal records are
// written. Only asynchronous grid jobs are: a synchronous mix job's client is
// gone after a crash, so there is nothing to resume — and a mix request
// answered from the result cache must not touch the disk at all.
func journaled(j *job) bool { return j.kind == "grid" }

// accepted records an admitted job.
func (jn *journal) accepted(j *job) {
	if jn == nil || !journaled(j) {
		return
	}
	mixes := make([]string, len(j.mixes))
	for i, m := range j.mixes {
		mixes[i] = m.Name
	}
	jn.append(journalRecord{
		Event:    "accepted",
		ID:       j.id,
		Client:   j.client,
		Kind:     j.kind,
		Scale:    j.scale,
		TimeoutS: j.timeout.Seconds(),
		Mixes:    mixes,
		Schemes:  j.scheme,
	})
}

// terminal records a journaled job reaching a final state. A job without an
// accepted record gets none: the journal, and its replay at boot, must not
// grow with every request served.
func (jn *journal) terminal(j *job, state JobState) {
	if jn == nil || !journaled(j) {
		return
	}
	jn.append(journalRecord{Event: "terminal", ID: j.id, State: string(state)})
}

// closeFile releases the journal file (drain path; writes after close would
// disable the journal, but drain stops them first).
func (jn *journal) closeFile() {
	if jn == nil {
		return
	}
	jn.mu.Lock()
	jn.disabled = true
	if jn.f != nil {
		jn.f.Close()
		jn.f = nil
	}
	jn.mu.Unlock()
}

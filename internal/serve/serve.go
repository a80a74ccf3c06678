// Package serve turns the experiment engine into a long-lived simulation
// service: an HTTP/JSON API in front of a bounded, client-fair job queue
// that executes every request, at any bandwidth scale, through one runner, so
// the single-flight result cache, the refcounted warm-base registry, and the
// standalone-profile cache are shared across requests — a repeated grid
// point from any client is a cache hit, and a new scheme over an
// already-warmed mix forks a resident base instead of re-warming.
//
// API:
//
//	POST /v1/mix        one (mix, scheme) cell, synchronous; body {"mix","scheme","scale","timeout_s"}
//	POST /v1/grid       a mixes x schemes grid, asynchronous; returns {"id",...}
//	GET  /v1/jobs       list every resident job (including "interrupted" jobs recovered from the journal)
//	GET  /v1/jobs/{id}  job snapshot; ?watch=1 streams one JSON line per change
//	POST /v1/jobs/{id}/retry  re-enqueue a terminal job's spec as a fresh job
//	DELETE /v1/jobs/{id} cancel a queued or running job
//	GET  /metrics       Prometheus text exposition (obs counters + queue gauges)
//	GET  /healthz       liveness
//
// Admission control: the queue depth is bounded; past the bound requests
// get 429 with a Retry-After hint. Dispatch is round-robin over client IDs
// (X-Client-ID header, else the remote host), so a flooding client cannot
// starve others. A /v1/mix cell already resident (in memory, or on disk) is
// no job: the handler writes its stored encoding and returns, so a hit is
// never queued, never counts against its client's share and never gets a 429.
// Draining (SIGTERM) stops admission, hits included, with 503 but completes
// every accepted job before shutdown.
package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bwpart/internal/exper"
	"bwpart/internal/faultinject"
	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// Defaults for Options zero values.
const (
	DefaultWorkers    = 2
	DefaultMaxQueue   = 64
	DefaultCacheBytes = 256 << 20 // resident result-cache budget
	DefaultRetryAfter = time.Second
	// defaultJobRetention bounds how many terminal jobs stay queryable; the
	// oldest are forgotten first (their results remain in the result cache,
	// so re-requesting them is still free).
	defaultJobRetention = 256
)

// Run's edge limits: a client that has not finished a request's headers
// within readHeaderTimeout, has not sent its body within readBodyTimeout
// after them, or leaves a keep-alive connection idle for idleTimeout, is
// disconnected, so slow or stalled clients cannot pin connections and
// goroutines indefinitely. The whole request read is therefore bounded by
// readHeaderTimeout + readBodyTimeout. The body's bound is a read deadline
// decodeRequest sets and clears, not http.Server.ReadTimeout: that deadline
// would stay on the connection while the handler runs, and its expiry
// cancels the request's context, which would end every cold /v1/mix and
// every watch stream that outlives it.
const (
	readHeaderTimeout = 5 * time.Second
	readBodyTimeout   = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Options configures a Server.
type Options struct {
	// Exper is the server's experiment configuration, which every scale
	// edits, honored as given except for three defaults: a nil Obs
	// (the collector of every counter, exposed at /metrics) and a nil
	// Cache are created, and a zero CacheBytes is DefaultCacheBytes
	// (negative means unbounded). Checkpoint, when set, is the persistent
	// second cache tier: a restarted server serves previously simulated
	// cells from disk without re-simulating. Faults arms the fault
	// injection layer across the serve and experiment layers (chaos tests
	// only).
	Exper exper.Config
	// Workers is the number of jobs executed concurrently (each job fans
	// its cells out internally under Exper.Parallelism). Default 2.
	Workers int
	// MaxQueue bounds the number of accepted-but-undispatched jobs;
	// admission past it is refused with 429. Default 64.
	MaxQueue int
	// RetryAfter is the hint returned with 429 responses. Default 1s.
	RetryAfter time.Duration
	// JobTimeout caps each job's wall-clock execution; a job past it fails
	// with a "deadline" error and its worker moves on (the abandoned
	// executor unwinds in the background and its late result is ignored).
	// A request's timeout_s can tighten but never exceed this cap.
	// 0 (the default) means unlimited.
	JobTimeout time.Duration
}

// Server is a resident simulation service. Create with New, serve with
// Run (or mount Handler into an existing mux), stop with Drain.
type Server struct {
	opts   Options
	col    *obs.Collector
	runner *exper.Runner // every scale's cells, as exper.System{Scale: scale}
	queue  *fairQueue

	jobMu    sync.Mutex
	jobs     map[string]*job
	terminal []string // terminal job IDs, oldest first, for retention

	journal *journal // nil without a checkpoint store

	nextID   atomic.Int64
	draining atomic.Bool
	workers  sync.WaitGroup
}

// New validates the options, builds the runner (so a bad configuration fails
// at startup, not on the first request), and starts the worker pool.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = DefaultWorkers
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = DefaultMaxQueue
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = DefaultRetryAfter
	}
	if opts.Exper.Obs == nil {
		opts.Exper.Obs = obs.NewCollector()
	}
	col, faults := opts.Exper.Obs, opts.Exper.Faults
	faults.OnFire(func(faultinject.Point) { col.Add(obs.FaultsInjected, 1) })
	if opts.Exper.CacheBytes == 0 {
		opts.Exper.CacheBytes = DefaultCacheBytes
	}
	// With a checkpoint store, the job journal lives beside the cell files
	// and feeds crash-resume. Its records are replayed below; a journal that
	// cannot be opened for append is a logged, counted degradation — never a
	// startup failure.
	var jn *journal
	var replay []journalRecord
	if opts.Exper.Checkpoint != nil {
		var err error
		jn, replay, err = openJournal(filepath.Join(opts.Exper.Checkpoint.Dir(), "journal.jsonl"), col, faults)
		if err != nil {
			col.Add(obs.CheckpointErrors, 1)
			log.Printf("serve: opening job journal: %v (journaling disabled, resume still replayed)", err)
		}
	}
	runner, err := exper.NewRunner(opts.Exper)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:    opts,
		col:     col,
		runner:  runner,
		queue:   newFairQueue(opts.MaxQueue),
		jobs:    make(map[string]*job),
		journal: jn,
	}
	s.replayJournal(replay)
	s.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// replayJournal materializes the previous process's unfinished grid jobs as
// terminal "interrupted" jobs: visible on GET /v1/jobs, frozen until a
// client retries one. cellsDone shows how much of each interrupted job is
// already paid for — the cells whose checkpoint files exist, the same tier
// the retry itself resumes from — and the job ID counter continues past every
// replayed ID. Events other than "accepted" and "terminal" are skipped.
func (s *Server) replayJournal(recs []journalRecord) {
	if len(recs) == 0 {
		return
	}
	accepted := make(map[string]journalRecord)
	terminal := make(map[string]bool)
	var order []string
	var maxID int64
	for _, rec := range recs {
		switch rec.Event {
		case "accepted":
			if _, ok := accepted[rec.ID]; !ok {
				accepted[rec.ID] = rec
				order = append(order, rec.ID)
			}
			if n, err := strconv.ParseInt(strings.TrimPrefix(rec.ID, "job-"), 10, 64); err == nil {
				maxID = max(maxID, n)
			}
		case "terminal":
			terminal[rec.ID] = true
		}
	}
	if maxID > s.nextID.Load() {
		s.nextID.Store(maxID)
	}
	for _, id := range order {
		if terminal[id] {
			continue
		}
		rec := accepted[id]
		mixes, err := resolve(rec.Mixes, rec.Schemes)
		if err != nil {
			log.Printf("serve: journal job %s no longer resolvable, dropped: %v", id, err)
			continue
		}
		j := newJob(rec.ID, rec.Client, rec.Kind, rec.Scale, mixes, rec.Schemes, time.Duration(rec.TimeoutS*float64(time.Second)))
		j.state = JobInterrupted
		j.err = "interrupted: server exited mid-job; POST /v1/jobs/" + j.id + "/retry to resume"
		close(j.done)
		for _, c := range (exper.System{Scale: j.scale}).Grid(mixes, rec.Schemes) {
			if s.opts.Exper.Checkpoint.Has(s.runner, c) {
				j.cellsDone++
			}
		}
		s.jobMu.Lock()
		s.jobs[j.id] = j
		s.jobMu.Unlock()
		s.finishJob(j)
	}
}

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/mix", s.handleMix)
	mux.HandleFunc("POST /v1/grid", s.handleGrid)
	mux.HandleFunc("GET /v1/jobs", s.handleJobsList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("POST /v1/jobs/{id}/retry", s.handleJobRetry)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Run serves HTTP on ln until ctx is cancelled, then drains: admission
// stops (503), every already-accepted job completes, and the HTTP server
// shuts down — all within drainTimeout, past which running jobs are
// cancelled. Returns nil on a clean drain.
func (s *Server) Run(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	derr := s.Drain(dctx)
	return cmp.Or(derr, hs.Shutdown(dctx))
}

// Drain stops admission (new requests get 503), lets every accepted job
// run to completion, and waits for the workers to exit. If ctx expires
// first, the remaining jobs are cancelled and Drain reports the deadline
// error after the workers finish unwinding.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.close()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.jobMu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.jobMu.Unlock()
		<-done
		err = fmt.Errorf("serve: drain deadline exceeded, running jobs cancelled: %w", ctx.Err())
	}
	s.journal.closeFile()
	return err
}

// QueueDepth reports the accepted-but-undispatched job count.
func (s *Server) QueueDepth() int { return s.queue.size() }

// Obs returns the server's collector (for tests and embedding CLIs).
func (s *Server) Obs() *obs.Collector { return s.col }

// ---- request handling ----

// MixRequest is the body of POST /v1/mix: one cell, answered synchronously
// with the exper.MixRun JSON.
type MixRequest struct {
	Mix    string  `json:"mix"`
	Scheme string  `json:"scheme"`
	Scale  float64 `json:"scale,omitempty"` // bandwidth scale, default 1
	// TimeoutS caps this job's execution in seconds; it can tighten but not
	// exceed the server's -job-timeout. 0 inherits the server cap.
	TimeoutS float64 `json:"timeout_s,omitempty"`
}

// GridRequest is the body of POST /v1/grid: a mixes x schemes sweep,
// answered with 202 and a job to poll or watch.
type GridRequest struct {
	Mixes    []string `json:"mixes"`
	Schemes  []string `json:"schemes"`
	Scale    float64  `json:"scale,omitempty"`
	TimeoutS float64  `json:"timeout_s,omitempty"`
}

// effectiveTimeout resolves a request's timeout_s against the server cap:
// the tighter of the two wins, 0 means unlimited.
func (s *Server) effectiveTimeout(reqS float64) (time.Duration, error) {
	if reqS < 0 || math.IsNaN(reqS) || math.IsInf(reqS, 0) {
		return 0, errors.New("timeout_s must be a non-negative finite number")
	}
	d := time.Duration(reqS * float64(time.Second))
	cap := s.opts.JobTimeout
	if d <= 0 || (cap > 0 && d > cap) {
		return cap, nil
	}
	return d, nil
}

// GridAccepted is the 202 body of POST /v1/grid.
type GridAccepted struct {
	ID         string `json:"id"`
	StatusURL  string `json:"status_url"`
	CellsTotal int    `json:"cells_total"`
}

// writeJSON answers status with v as a JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// gridAccepted is the 202 body for an accepted grid job.
func gridAccepted(j *job) GridAccepted {
	return GridAccepted{ID: j.id, StatusURL: "/v1/jobs/" + j.id, CellsTotal: j.cellsTotal}
}

// clientID identifies the requester for fairness: the X-Client-ID header
// when present, else the remote host.
func clientID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Client-ID")); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// resolve validates a request's grid size and its mix and policy names at
// admission time, so malformed requests are refused with 400 instead of
// wasting a queue slot.
func resolve(mixNames, schemes []string) ([]workload.Mix, error) {
	if len(mixNames) == 0 || len(schemes) == 0 {
		return nil, errors.New("need at least one mix and one scheme")
	}
	if n := len(mixNames) * len(schemes); n > maxGridCells {
		return nil, fmt.Errorf("grid of %d cells is over the %d-cell cap", n, maxGridCells)
	}
	mixes := make([]workload.Mix, len(mixNames))
	for i, name := range mixNames {
		m, err := workload.MixByName(name)
		if err != nil {
			return nil, err
		}
		mixes[i] = m
	}
	for _, scheme := range schemes {
		if err := exper.CheckPolicy(scheme); err != nil {
			return nil, err
		}
	}
	return mixes, nil
}

// admit registers and enqueues a job, applying admission control: 503 while
// draining, 429 + Retry-After when the queue is full. Returns nil after
// writing the refusal.
func (s *Server) admit(w http.ResponseWriter, j *job) *job {
	if s.draining.Load() {
		s.col.Add(obs.ReqRejected, 1)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return nil
	}
	s.jobMu.Lock()
	s.jobs[j.id] = j
	s.jobMu.Unlock()
	if !s.queue.push(j) {
		s.jobMu.Lock()
		delete(s.jobs, j.id)
		s.jobMu.Unlock()
		s.col.Add(obs.ReqRejected, 1)
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(s.opts.RetryAfter.Seconds()))))
		httpError(w, http.StatusTooManyRequests, "job queue full (depth %d)", s.opts.MaxQueue)
		return nil
	}
	s.col.Add(obs.ReqAccepted, 1)
	s.journal.accepted(j)
	return j
}

func (s *Server) newJobID() string {
	return "job-" + strconv.FormatInt(s.nextID.Add(1), 10)
}

// validate checks a request's mix and scheme names, bandwidth scale (0 is
// set to 1) and timeout, answering 400 for the first bad one (ok false).
func (s *Server) validate(w http.ResponseWriter, mixNames, schemes []string, scale *float64, timeoutS float64) (mixes []workload.Mix, timeout time.Duration, ok bool) {
	if *scale == 0 {
		*scale = 1
	}
	mixes, err := resolve(mixNames, schemes)
	if err == nil {
		_, err = s.runner.SystemConfig(exper.System{Scale: *scale})
	}
	if err == nil {
		timeout, err = s.effectiveTimeout(timeoutS)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
	}
	return mixes, timeout, err == nil
}

// maxGridCells caps a grid's mixes × schemes: a 1 MiB body of repeated names
// could ask for billions of cells, which exper.Grid allocates up front.
const maxGridCells = 4096

// maxBodyBytes caps a request body. A mix or grid request names mixes and
// schemes: a few hundred bytes, a few kilobytes for a grid over every mix.
const maxBodyBytes = 1 << 20

// decodeRequest decodes r's JSON body into v, reading at most maxBodyBytes of
// it within readBodyTimeout, and answers 413 for a longer body and 400 for
// any other decode error, a stalled body or an unknown field included (ok
// false): a misspelt field would otherwise run the request with that
// field's default. The deadline is cleared once the body is decoded, and
// kept on an error, so that the server's discard of an unread body fails
// and closes the connection rather than wait on a stalled client. A writer
// that cannot set one (a test recorder) reads without a deadline; the
// writer is asserted directly rather than through http.ResponseController,
// whose refusal allocates an error on every request.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) (ok bool) {
	d, deadline := w.(interface{ SetReadDeadline(time.Time) error })
	deadline = deadline && d.SetReadDeadline(time.Now().Add(readBodyTimeout)) == nil
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		if deadline {
			d.SetReadDeadline(time.Time{})
		}
		return true
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
	default:
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
	}
	return false
}

func (s *Server) handleMix(w http.ResponseWriter, r *http.Request) {
	var req MixRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	mixes, timeout, ok := s.validate(w, []string{req.Mix}, []string{req.Scheme}, &req.Scale, req.TimeoutS)
	if !ok {
		return
	}
	cell := exper.GridCell{Mix: mixes[0], Scheme: req.Scheme, System: exper.System{Scale: req.Scale}}
	// A resident cell is a lookup and one Write; only a miss becomes a job.
	// While draining there is no lookup: admit answers 503, as to any request.
	if !s.draining.Load() {
		if body, err := s.runner.ResidentJSON(cell); err == nil {
			s.col.Add(obs.ServeHits, 1)
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
			return
		}
	}
	j := newJob(s.newJobID(), clientID(r), "mix", req.Scale, mixes, []string{req.Scheme}, timeout)
	if s.admit(w, j) == nil {
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client went away: a queued job frees its slot; a running one
		// finishes on its own (its cell lands in the shared cache anyway).
		s.cancelIfQueued(j)
		return
	}
	snap := j.snapshot()
	switch {
	case snap.State == JobDone:
		body, _ := s.runner.EncodeCell(cell, snap.Results[0]) // the bytes its hits get
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case snap.State == JobCancelled:
		httpError(w, http.StatusConflict, "job %s cancelled", j.id)
	case snap.ErrorKind == ErrKindDeadline:
		httpError(w, http.StatusGatewayTimeout, "%s", snap.Error)
	default:
		httpError(w, http.StatusInternalServerError, "%s", snap.Error)
	}
}

func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	var req GridRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	mixes, timeout, ok := s.validate(w, req.Mixes, req.Schemes, &req.Scale, req.TimeoutS)
	if !ok {
		return
	}
	j := newJob(s.newJobID(), clientID(r), "grid", req.Scale, mixes, req.Schemes, timeout)
	if s.admit(w, j) == nil {
		return
	}
	writeJSON(w, http.StatusAccepted, gridAccepted(j))
}

func (s *Server) lookupJob(id string) *job {
	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	return s.jobs[id]
}

// handleJobsList returns every resident job's snapshot (without result
// payloads — the listing is an index), sorted by numeric ID. After a crash
// restart this is where interrupted jobs surface.
func (s *Server) handleJobsList(w http.ResponseWriter, _ *http.Request) {
	s.jobMu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.jobMu.Unlock()
	snaps := make([]JobSnapshot, 0, len(jobs))
	for _, j := range jobs {
		snap := j.snapshot()
		snap.Results = nil
		snaps = append(snaps, snap)
	}
	sort.Slice(snaps, func(a, b int) bool {
		na, _ := strconv.ParseInt(strings.TrimPrefix(snaps[a].ID, "job-"), 10, 64)
		nb, _ := strconv.ParseInt(strings.TrimPrefix(snaps[b].ID, "job-"), 10, 64)
		if na != nb {
			return na < nb
		}
		return snaps[a].ID < snaps[b].ID
	})
	writeJSON(w, http.StatusOK, map[string][]JobSnapshot{"jobs": snaps})
}

// handleJobRetry re-enqueues a terminal job's spec as a fresh job — the
// resume path for interrupted jobs (checkpointed cells answer from disk, so
// only the missing ones are simulated), also usable on failed or cancelled
// ones. Normal admission control applies.
func (s *Server) handleJobRetry(w http.ResponseWriter, r *http.Request) {
	old := s.lookupJob(r.PathValue("id"))
	if old == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if snap := old.snapshot(); !snap.State.Terminal() {
		httpError(w, http.StatusConflict, "job %s is still %s", old.id, snap.State)
		return
	}
	j := newJob(s.newJobID(), clientID(r), old.kind, old.scale, old.mixes, old.scheme, old.timeout)
	if s.admit(w, j) == nil {
		return
	}
	// The old job's spec now lives on in the new one: a "retried" terminal
	// record stops the next restart from replaying it as interrupted again.
	s.journal.terminal(old, JobState("retried"))
	writeJSON(w, http.StatusAccepted, gridAccepted(j))
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if r.URL.Query().Get("watch") == "" {
		writeJSON(w, http.StatusOK, j.snapshot())
		return
	}
	// Streamed progress: one JSON line per state change, ending with the
	// terminal snapshot (which carries the results for done jobs).
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		snap, changed := j.watch()
		if err := enc.Encode(snap); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if snap.State.Terminal() {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookupJob(r.PathValue("id"))
	if j == nil {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.snapshot())
}

// finish moves j to state exactly once: whichever caller wins the terminal
// transition also does the bookkeeping — per-outcome counters, the journal's
// terminal record, and retention. Losing callers (a late worker after a
// deadline detach, a failure racing a cancel) are no-ops, which is what
// keeps accepted == done + failed + cancelled exact.
func (s *Server) finish(j *job, state JobState, errMsg, errKind string, extra func()) bool {
	if !j.update(func() {
		j.state = state
		if errMsg != "" {
			j.err = errMsg
		}
		j.errKind = errKind
		if extra != nil {
			extra()
		}
	}) {
		return false
	}
	switch state {
	case JobDone:
		s.col.Add(obs.ServeJobsDone, 1)
	case JobFailed:
		s.col.Add(obs.ServeJobsFailed, 1)
		switch errKind {
		case ErrKindDeadline:
			s.col.Add(obs.JobsDeadlineExceeded, 1)
		case ErrKindPanic:
			s.col.Add(obs.JobsPanicked, 1)
		}
	case JobCancelled:
		s.col.Add(obs.JobsCancelled, 1)
	}
	s.journal.terminal(j, state)
	s.finishJob(j)
	return true
}

// cancelJob cancels a job in any non-terminal state: a queued job is pulled
// from the queue and marked cancelled immediately; a running one has its
// context cancelled and reaches the cancelled state when the runner unwinds
// (between simulations).
func (s *Server) cancelJob(j *job) {
	if s.queue.remove(j) {
		s.finish(j, JobCancelled, "", "", nil)
		return
	}
	j.cancel()
}

// cancelIfQueued is the client-disconnect path for synchronous requests:
// only a still-queued job is cancelled (running work completes and feeds
// the shared cache).
func (s *Server) cancelIfQueued(j *job) {
	if s.queue.remove(j) {
		s.finish(j, JobCancelled, "", "", nil)
	}
}

// finishJob applies terminal-job retention: the oldest terminal jobs are
// forgotten past the retention bound so a long-lived server's job registry
// stays bounded.
func (s *Server) finishJob(j *job) {
	s.jobMu.Lock()
	s.terminal = append(s.terminal, j.id)
	for len(s.terminal) > defaultJobRetention {
		delete(s.jobs, s.terminal[0])
		s.terminal = s.terminal[1:]
	}
	s.jobMu.Unlock()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := s.col.Snapshot()
	if err := snap.WriteProm(w); err != nil {
		return
	}
	s.jobMu.Lock()
	resident := len(s.jobs)
	s.jobMu.Unlock()
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(w, "# HELP bwpart_serve_queue_depth Accepted jobs waiting for a worker.\n# TYPE bwpart_serve_queue_depth gauge\nbwpart_serve_queue_depth %d\n", s.queue.size())
	fmt.Fprintf(w, "# HELP bwpart_serve_jobs_resident Jobs retained in the registry.\n# TYPE bwpart_serve_jobs_resident gauge\nbwpart_serve_jobs_resident %d\n", resident)
	fmt.Fprintf(w, "# HELP bwpart_serve_draining Whether admission is closed for drain.\n# TYPE bwpart_serve_draining gauge\nbwpart_serve_draining %d\n", draining)
}

// ---- job execution ----

func (s *Server) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.opts.Exper.Faults.Sleep(faultinject.QueueStall)
		s.runJob(j)
	}
}

// runJob arms the job's deadline and runs the executor. Without a deadline
// the executor runs on the worker directly; with one it runs on a child
// goroutine the worker can abandon: when the deadline fires first, the job
// fails with a "deadline" error and the worker moves on — a wedged or
// glacial cell never wedges a worker. The abandoned executor keeps
// unwinding in the background (RunGrid honors the cancelled context between
// simulations) and its late terminal transition loses the finish() race.
func (s *Server) runJob(j *job) {
	if j.ctx.Err() != nil {
		s.finish(j, JobCancelled, "", "", nil)
		return
	}
	if !j.update(func() { j.state = JobRunning }) {
		return
	}
	if j.timeout <= 0 {
		s.executeJob(j.ctx, j)
		return
	}
	ctx, cancel := context.WithTimeout(j.ctx, j.timeout)
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer cancel()
		s.executeJob(ctx, j)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if j.ctx.Err() == nil && errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.finish(j, JobFailed,
				fmt.Sprintf("deadline exceeded: job ran longer than %v", j.timeout),
				ErrKindDeadline, nil)
			return // detach: the executor finishes unwinding on its own
		}
		<-done // client cancellation: the executor unwinds cooperatively
	}
}

// executeJob runs one job as one engine fan-out: the whole grid goes through
// a single RunCells call (shared warm bases, group pinning, result-cache
// dedup), so cells of different mixes share the workers, and cells_done rises
// by one per delivered cell. Cancellation is honored, inside the engine,
// between simulations. A panic anywhere in the job path — below the
// experiment engine's own per-cell recovery — is the daemon's last resort:
// the job fails with a stack-carrying "panic" error and the server keeps
// serving.
func (s *Server) executeJob(ctx context.Context, j *job) {
	defer func() {
		if r := recover(); r != nil {
			s.finish(j, JobFailed, fmt.Sprintf("job panicked: %v\n%s", r, debug.Stack()), ErrKindPanic, nil)
		}
	}()
	if s.opts.Exper.Faults.Fire(faultinject.JobPanic) {
		panic("injected job panic")
	}
	results, err := s.runner.RunCells(ctx, exper.System{Scale: j.scale}.Grid(j.mixes, j.scheme), func(int, *exper.MixRun) {
		j.update(func() { j.cellsDone++ })
	})
	if err != nil {
		switch {
		case j.ctx.Err() != nil:
			s.finish(j, JobCancelled, "", "", nil)
		case ctx.Err() != nil:
			s.finish(j, JobFailed,
				fmt.Sprintf("deadline exceeded after %v: %v", j.timeout, err),
				ErrKindDeadline, nil)
		case errors.Is(err, exper.ErrJobPanicked):
			s.finish(j, JobFailed, err.Error(), ErrKindPanic, nil)
		default:
			s.finish(j, JobFailed, err.Error(), "", nil)
		}
		return
	}
	s.finish(j, JobDone, "", "", func() { j.results = results })
}

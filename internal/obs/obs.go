// Package obs provides lightweight run-level observability for experiment
// sweeps: one table of named counters, per-stage wall-time aggregation, and
// memory-controller queue-depth statistics, all collected into a Collector
// that is safe for concurrent use by worker goroutines. A nil *Collector is
// a valid no-op receiver, so instrumented code never needs nil checks and
// pays one branch when observability is off.
//
// The Collector condenses into a Snapshot — a plain struct with JSON tags —
// which CLIs render as a -progress stderr ticker or write as a -stats-json
// sidecar file.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// Canonical stage names used by the experiment runner. Stages are open-ended
// strings; these constants just keep runner and renderers in sync.
const (
	StageWarmup  = "warmup"
	StageProfile = "alone-profiling"
	StageSettle  = "settle"
	StageMeasure = "measurement"
)

// Counter names one integer the Collector keeps. Each is defined exactly once,
// by its row in the counters table below: Prometheus name and help text,
// monotonic counter or gauge, and the Snapshot field it lands in. Snapshot and
// WriteProm loop over that table, so adding a counter is one constant, one
// row and one Snapshot field.
type Counter int

const (
	// The fan-out pool's units of work (grid cells): expected, begun,
	// completed, and failed by error or panic.
	JobsTotal Counter = iota
	JobsStarted
	JobsFinished
	JobsFailed
	// A resolved cell counts exactly once: CellHits on a finished cell in the
	// result cache, CellCoalesced for joining an in-flight one (single-flight),
	// CheckpointHits when the persistent tier served it, CellMisses when the
	// request led the cell's one real simulation.
	CellHits
	CellMisses
	CellCoalesced
	CellEvictions     // finished cells dropped by the result cache's byte bound
	CellBytes         // gauge: the resident bytes that bound is enforced against
	WarmForks         // measurements positioned on a warm base instead of re-warming
	PreparedEvictions // warm bases dropped by the prepared-mix LRU
	CheckpointHits
	// Admission control of a serving front end, and how accepted jobs ended.
	ReqAccepted     // admitted into the job queue
	ReqRejected     // refused: queue full or draining
	JobsCancelled   // accepted, then cancelled before completion
	ServeJobsDone   // accepted, reached the done state
	ServeJobsFailed // accepted, reached the failed state
	ServeHits       // answered from a resident cell without becoming a job
	// Failure paths of a long-lived service. Checkpoint-tier I/O failures
	// (load, save, journal append) demote the store rather than fail cells, so
	// CheckpointErrors and the CheckpointDegraded gauge (0 healthy, 1
	// in-memory-only) are how a sick disk surfaces.
	JobsDeadlineExceeded
	JobsPanicked // saved by the last-resort recovery; the daemon kept serving
	CheckpointErrors
	CheckpointDegraded
	FaultsInjected // fired fault-injection points; zero in production
	// Simulation-kernel totals, written only through AddKernel.
	kernelCycles
	kernelCyclesTicked
	kernelComponentTicks
	kernelComponentSlept
	kernelPokes
	numCounters
)

// counters is the one definition of every Counter, in /metrics order (the
// job rows precede the stage lines, the rest follow the queue gauges).
var counters = [numCounters]struct {
	name, help string
	gauge      bool
	field      func(*Snapshot) *int64
}{
	JobsTotal:            {"bwpart_jobs_total", "Simulation jobs enqueued.", false, func(s *Snapshot) *int64 { return &s.Jobs.Total }},
	JobsStarted:          {"bwpart_jobs_started_total", "Simulation jobs started.", false, func(s *Snapshot) *int64 { return &s.Jobs.Started }},
	JobsFinished:         {"bwpart_jobs_finished_total", "Simulation jobs finished successfully.", false, func(s *Snapshot) *int64 { return &s.Jobs.Finished }},
	JobsFailed:           {"bwpart_jobs_failed_total", "Simulation jobs failed.", false, func(s *Snapshot) *int64 { return &s.Jobs.Failed }},
	CellHits:             {"bwpart_cell_cache_hits_total", "Result-cache hits on finished cells.", false, func(s *Snapshot) *int64 { return &s.Cache.Hits }},
	CellMisses:           {"bwpart_cell_cache_misses_total", "Result-cache misses (leader simulations).", false, func(s *Snapshot) *int64 { return &s.Cache.Misses }},
	CellCoalesced:        {"bwpart_cell_cache_coalesced_total", "Requests coalesced onto in-flight cells.", false, func(s *Snapshot) *int64 { return &s.Cache.Coalesced }},
	CellEvictions:        {"bwpart_cell_cache_evictions_total", "Finished cells evicted by the byte bound.", false, func(s *Snapshot) *int64 { return &s.Cache.Evictions }},
	CellBytes:            {"bwpart_cell_cache_bytes", "Resident bytes of cached cells.", true, func(s *Snapshot) *int64 { return &s.Cache.Bytes }},
	WarmForks:            {"bwpart_warm_forks_total", "Measurements forked from a warm prepared base.", false, func(s *Snapshot) *int64 { return &s.Cache.WarmForks }},
	PreparedEvictions:    {"bwpart_prepared_evictions_total", "Warm bases evicted by the prepared-mix LRU.", false, func(s *Snapshot) *int64 { return &s.Cache.PreparedEvictions }},
	CheckpointHits:       {"bwpart_checkpoint_hits_total", "Cells served from the persistent checkpoint tier.", false, func(s *Snapshot) *int64 { return &s.Cache.CheckpointHits }},
	ReqAccepted:          {"bwpart_requests_accepted_total", "Service requests admitted into the job queue.", false, func(s *Snapshot) *int64 { return &s.Admission.Accepted }},
	ReqRejected:          {"bwpart_requests_rejected_total", "Service requests refused by admission control.", false, func(s *Snapshot) *int64 { return &s.Admission.Rejected }},
	JobsCancelled:        {"bwpart_jobs_cancelled_total", "Accepted jobs cancelled before completion.", false, func(s *Snapshot) *int64 { return &s.Admission.Cancelled }},
	ServeJobsDone:        {"bwpart_serve_jobs_done_total", "Jobs that reached the done state.", false, func(s *Snapshot) *int64 { return &s.Admission.Done }},
	ServeJobsFailed:      {"bwpart_serve_jobs_failed_total", "Jobs that reached the failed state.", false, func(s *Snapshot) *int64 { return &s.Admission.Failed }},
	ServeHits:            {"bwpart_serve_hits_total", "Requests answered from a resident cell without a job.", false, func(s *Snapshot) *int64 { return &s.Admission.Hits }},
	JobsDeadlineExceeded: {"bwpart_jobs_deadline_exceeded_total", "Service jobs failed by their deadline.", false, func(s *Snapshot) *int64 { return &s.Failures.DeadlineExceeded }},
	JobsPanicked:         {"bwpart_jobs_panicked_total", "Service jobs failed by the last-resort panic recovery.", false, func(s *Snapshot) *int64 { return &s.Failures.Panicked }},
	CheckpointErrors:     {"bwpart_checkpoint_errors_total", "Checkpoint-tier I/O failures (load, save, journal).", false, func(s *Snapshot) *int64 { return &s.Failures.CheckpointErrors }},
	CheckpointDegraded:   {"bwpart_checkpoint_degraded", "Whether the checkpoint store has demoted itself to in-memory-only mode.", true, func(s *Snapshot) *int64 { return &s.Failures.CheckpointDegraded }},
	FaultsInjected:       {"bwpart_faults_injected_total", "Fired fault-injection points (chaos testing only).", false, func(s *Snapshot) *int64 { return &s.Failures.FaultsInjected }},
	kernelCycles:         {"bwpart_kernel_cycles_total", "Simulated cycles of measured cells.", false, func(s *Snapshot) *int64 { return &s.Kernel.Cycles }},
	kernelCyclesTicked:   {"bwpart_kernel_cycles_ticked_total", "Simulated cycles on which any component ticked.", false, func(s *Snapshot) *int64 { return &s.Kernel.CyclesTicked }},
	kernelComponentTicks: {"bwpart_kernel_component_ticks_total", "Component-cycles spent ticking.", false, func(s *Snapshot) *int64 { return &s.Kernel.ComponentTicks }},
	kernelComponentSlept: {"bwpart_kernel_component_slept_total", "Component-cycles slept (integrated in closed form).", false, func(s *Snapshot) *int64 { return &s.Kernel.ComponentSlept }},
	kernelPokes:          {"bwpart_kernel_pokes_total", "Times one component roused another from sleep.", false, func(s *Snapshot) *int64 { return &s.Kernel.Pokes }},
}

// Collector accumulates run-level counters. The zero value is ready to use;
// a nil *Collector silently discards every observation. One mutex guards
// everything, so a Snapshot is a single consistent cut across all counters
// (identities such as accepted == done + failed + cancelled hold on it).
type Collector struct {
	mu      sync.Mutex
	started time.Time

	n      [numCounters]int64
	stages map[string]stageAgg

	queueSamples int64
	queueSum     int64
	queueMax     int
}

type stageAgg struct {
	count int64
	total time.Duration
}

// NewCollector returns a Collector whose elapsed clock starts now.
func NewCollector() *Collector { return &Collector{started: time.Now()} }

// Add moves counter k by n.
func (c *Collector) Add(k Counter, n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n[k] += n
	c.mu.Unlock()
}

// Set overwrites gauge k with n.
func (c *Collector) Set(k Counter, n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n[k] = n
	c.mu.Unlock()
}

// AddKernel folds one simulated system's kernel counters into the totals.
func (c *Collector) AddKernel(k KernelStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.n[kernelCycles] += k.Cycles
	c.n[kernelCyclesTicked] += k.CyclesTicked
	c.n[kernelComponentTicks] += k.ComponentTicks
	c.n[kernelComponentSlept] += k.ComponentSlept
	c.n[kernelPokes] += k.Pokes
	c.mu.Unlock()
}

// StageStart opens a timed stage and returns the closer that records its
// wall time. Concurrent stages of the same name aggregate (count + total).
//
//	defer c.StageStart(obs.StageWarmup)()
func (c *Collector) StageStart(name string) func() {
	if c == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		c.mu.Lock()
		if c.stages == nil {
			c.stages = make(map[string]stageAgg)
		}
		agg := c.stages[name]
		agg.count++
		agg.total += d
		c.stages[name] = agg
		c.mu.Unlock()
	}
}

// RecordQueueDepth folds one memory-controller queue-depth observation (the
// total across per-app queues) into the running min/max/mean statistics.
func (c *Collector) RecordQueueDepth(depth int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.queueSamples++
	c.queueSum += int64(depth)
	if depth > c.queueMax {
		c.queueMax = depth
	}
	c.mu.Unlock()
}

// QueueDepthSource is anything that can report per-application memory
// controller queue depths into a caller-owned buffer (sim.System and
// memctrl.Controller both qualify).
type QueueDepthSource interface {
	QueueDepthsInto(buf []int) []int
}

// QueueSampler repeatedly samples a QueueDepthSource into a Collector
// without allocating on the sampling path: the per-app depth buffer is
// owned by the sampler and reused across Sample calls. A sampler built
// from a nil Collector is a valid no-op.
type QueueSampler struct {
	col *Collector
	src QueueDepthSource
	buf []int
}

// NewQueueSampler binds a depth source to the collector. The returned
// sampler is not safe for concurrent use; give each worker its own.
func (c *Collector) NewQueueSampler(src QueueDepthSource) *QueueSampler {
	return &QueueSampler{col: c, src: src}
}

// Sample reads the current per-app queue depths and records their total
// (the controller's pending count) without heap allocation.
func (s *QueueSampler) Sample() {
	if s == nil || s.col == nil || s.src == nil {
		return
	}
	s.buf = s.src.QueueDepthsInto(s.buf)
	total := 0
	for _, d := range s.buf {
		total += d
	}
	s.col.RecordQueueDepth(total)
}

// JobCounters is the job-level slice of a Snapshot.
type JobCounters struct {
	Total    int64 `json:"total"`
	Started  int64 `json:"started"`
	Finished int64 `json:"finished"`
	Failed   int64 `json:"failed"`
}

// StageStat is one stage's aggregated wall time across all jobs.
type StageStat struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// QueueStats summarizes memory-controller queue-depth observations.
type QueueStats struct {
	Samples int64   `json:"samples"`
	Mean    float64 `json:"mean"`
	Max     int     `json:"max"`
}

// CacheStats summarizes the experiment engine's result-cache, warm-base and
// checkpoint-tier activity (the Cell*, WarmForks, PreparedEvictions and
// CheckpointHits counters): misses are the simulations actually run.
type CacheStats struct {
	Hits              int64 `json:"hits"`
	Misses            int64 `json:"misses"`
	Coalesced         int64 `json:"coalesced"`
	WarmForks         int64 `json:"warm_forks"`
	Evictions         int64 `json:"evictions"`
	Bytes             int64 `json:"bytes"`
	PreparedEvictions int64 `json:"prepared_evictions"`
	CheckpointHits    int64 `json:"checkpoint_hits"`
}

// AdmissionStats summarizes a serving front end's admission control. Hits
// were never admitted: accepted == done + failed + cancelled leaves them out.
type AdmissionStats struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Cancelled int64 `json:"cancelled"`
	Done      int64 `json:"done"`
	Failed    int64 `json:"failed"`
	Hits      int64 `json:"hits"`
}

// FailureStats summarizes the failure paths of a long-lived service.
type FailureStats struct {
	DeadlineExceeded   int64 `json:"jobs_deadline_exceeded"`
	Panicked           int64 `json:"jobs_panicked"`
	CheckpointErrors   int64 `json:"checkpoint_errors"`
	CheckpointDegraded int64 `json:"checkpoint_degraded"`
	FaultsInjected     int64 `json:"faults_injected"`
}

// KernelStats totals the simulation kernel's work over every measured cell
// (sim.System.KernelStats summed over systems and components). A falling
// slept share is a loss of skip efficiency, visible here without a profiler.
type KernelStats struct {
	Cycles         int64 `json:"cycles"`
	CyclesTicked   int64 `json:"cycles_ticked"`
	ComponentTicks int64 `json:"component_ticks"`
	ComponentSlept int64 `json:"component_slept"`
	Pokes          int64 `json:"pokes"`
}

// Snapshot is a point-in-time copy of every collected statistic, ordered
// deterministically (stages sorted by name) for stable JSON output.
type Snapshot struct {
	ElapsedSeconds float64        `json:"elapsed_seconds"`
	Jobs           JobCounters    `json:"jobs"`
	Stages         []StageStat    `json:"stages"`
	Queue          QueueStats     `json:"queue"`
	Cache          CacheStats     `json:"cell_cache"`
	Admission      AdmissionStats `json:"admission"`
	Failures       FailureStats   `json:"failures"`
	Kernel         KernelStats    `json:"kernel"`
}

// Snapshot returns a consistent copy of the current counters. A nil
// Collector yields the zero Snapshot.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{Queue: QueueStats{Samples: c.queueSamples, Max: c.queueMax}}
	for k := range counters {
		*counters[k].field(&s) = c.n[k]
	}
	if !c.started.IsZero() {
		s.ElapsedSeconds = time.Since(c.started).Seconds()
	}
	if c.queueSamples > 0 {
		s.Queue.Mean = float64(c.queueSum) / float64(c.queueSamples)
	}
	for name, agg := range c.stages {
		s.Stages = append(s.Stages, StageStat{Name: name, Count: agg.count, Seconds: agg.total.Seconds()})
	}
	sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].Name < s.Stages[j].Name })
	return s
}

// WriteFile writes the snapshot as indented JSON to path: the CLIs'
// -stats-json sidecar. An empty path is a no-op.
func (s Snapshot) WriteFile(path string) error {
	if path == "" {
		return nil
	}
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding stats: %w", err)
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing stats: %w", err)
	}
	return nil
}

// Line renders the snapshot as a one-line progress string, e.g.
//
//	jobs 12/98 done (1 failed) | measurement 3.2s x24 | queue mean 5.1 max 19 | 4.8s
func (s Snapshot) Line() string {
	out := fmt.Sprintf("jobs %d/%d done", s.Jobs.Finished, s.Jobs.Total)
	if s.Jobs.Failed > 0 {
		out += fmt.Sprintf(" (%d failed)", s.Jobs.Failed)
	}
	for _, st := range s.Stages {
		out += fmt.Sprintf(" | %s %.1fs x%d", st.Name, st.Seconds, st.Count)
	}
	if s.Queue.Samples > 0 {
		out += fmt.Sprintf(" | queue mean %.1f max %d", s.Queue.Mean, s.Queue.Max)
	}
	if cs := s.Cache; cs.Hits+cs.Misses+cs.Coalesced > 0 {
		out += fmt.Sprintf(" | cells %dh/%dm/%dc", cs.Hits, cs.Misses, cs.Coalesced)
		if cs.WarmForks > 0 {
			out += fmt.Sprintf(" forks %d", cs.WarmForks)
		}
		if cs.Evictions > 0 {
			out += fmt.Sprintf(" evict %d", cs.Evictions)
		}
		if cs.PreparedEvictions > 0 {
			out += fmt.Sprintf(" base-evict %d", cs.PreparedEvictions)
		}
		if cs.CheckpointHits > 0 {
			out += fmt.Sprintf(" ckpt %d", cs.CheckpointHits)
		}
	}
	if k := s.Kernel; k.ComponentTicks+k.ComponentSlept > 0 {
		out += fmt.Sprintf(" | kernel %.0f%% slept", 100*float64(k.ComponentSlept)/float64(k.ComponentTicks+k.ComponentSlept))
	}
	if f := s.Failures; f.DeadlineExceeded+f.Panicked+f.CheckpointErrors+f.FaultsInjected > 0 || f.CheckpointDegraded != 0 {
		out += " |"
		if f.DeadlineExceeded > 0 {
			out += fmt.Sprintf(" deadline %d", f.DeadlineExceeded)
		}
		if f.Panicked > 0 {
			out += fmt.Sprintf(" panicked %d", f.Panicked)
		}
		if f.CheckpointErrors > 0 {
			out += fmt.Sprintf(" ckpt-err %d", f.CheckpointErrors)
		}
		if f.CheckpointDegraded != 0 {
			out += " ckpt-degraded"
		}
		if f.FaultsInjected > 0 {
			out += fmt.Sprintf(" faults %d", f.FaultsInjected)
		}
	}
	out += fmt.Sprintf(" | %.1fs", s.ElapsedSeconds)
	return out
}

// WriteProm renders the snapshot in the Prometheus text exposition format
// (HELP, TYPE and one sample per metric, all under the bwpart_ namespace), for
// a service's GET /metrics endpoint. Returns the first write error, if any.
func (s Snapshot) WriteProm(w io.Writer) error {
	var err error
	emit := func(name, help string, gauge bool, v float64) {
		if err != nil {
			return
		}
		typ := "counter"
		if gauge {
			typ = "gauge"
		}
		_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	emit("bwpart_elapsed_seconds", "Seconds since the collector started.", true, s.ElapsedSeconds)
	emitCounters := func(from, to Counter) {
		for k := from; k < to; k++ {
			emit(counters[k].name, counters[k].help, counters[k].gauge, float64(*counters[k].field(&s)))
		}
	}
	emitCounters(JobsTotal, CellHits)
	for _, st := range s.Stages {
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "bwpart_stage_seconds_total{stage=%q} %g\nbwpart_stage_count_total{stage=%q} %d\n",
			st.Name, st.Seconds, st.Name, st.Count)
	}
	emit("bwpart_memctrl_queue_depth_mean", "Mean sampled memory-controller queue depth.", true, s.Queue.Mean)
	emit("bwpart_memctrl_queue_depth_max", "Max sampled memory-controller queue depth.", true, float64(s.Queue.Max))
	emitCounters(CellHits, numCounters)
	return err
}

// Ticker periodically renders progress lines to w until stopped.
type Ticker struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartTicker renders c.Snapshot().Line() to w every interval. Stop it with
// Ticker.Stop, which emits one final line so the last state is always
// visible. Intervals below 100ms are raised to 100ms.
func (c *Collector) StartTicker(w io.Writer, interval time.Duration) *Ticker {
	t := &Ticker{stop: make(chan struct{}), done: make(chan struct{})}
	if c == nil {
		close(t.done)
		return t
	}
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	go func() {
		defer close(t.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Fprintf(w, "progress: %s\n", c.Snapshot().Line())
			case <-t.stop:
				fmt.Fprintf(w, "progress: %s\n", c.Snapshot().Line())
				return
			}
		}
	}()
	return t
}

// Stop halts the ticker after one final progress line and waits for the
// rendering goroutine to exit. Safe to call multiple times.
func (t *Ticker) Stop() {
	t.once.Do(func() { close(t.stop) })
	<-t.done
}

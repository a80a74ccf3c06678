// Package obs provides lightweight run-level observability for experiment
// sweeps: monotonic job counters, per-stage wall-time aggregation, and
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
	"fmt"
	"io"
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

// Collector accumulates run-level counters. The zero value is ready to use;
// a nil *Collector silently discards every observation.
type Collector struct {
	mu      sync.Mutex
	started time.Time

	jobsTotal    int64
	jobsStarted  int64
	jobsFinished int64
	jobsFailed   int64

	stages map[string]*stageAgg

	queueSamples int64
	queueSum     int64
	queueMax     int

	cellHits       int64
	cellMisses     int64
	cellCoalesced  int64
	cellEvicts     int64
	cellBytes      int64 // gauge: resident result-cache bytes
	warmForks      int64
	preparedEvicts int64
	checkpointHits int64

	reqAccepted   int64
	reqRejected   int64
	jobsCancelled int64

	jobsDeadline       int64
	jobsPanicked       int64
	checkpointErrors   int64
	checkpointDegraded int64 // gauge: 0 healthy, 1 demoted to in-memory-only
	faultsInjected     int64

	kernel KernelStats
}

type stageAgg struct {
	count int64
	total time.Duration
}

// NewCollector returns a Collector whose elapsed clock starts now.
func NewCollector() *Collector {
	return &Collector{started: time.Now()}
}

// AddTotal registers n more expected jobs (e.g. when a pool enqueues a
// batch), so progress can be rendered as done/total.
func (c *Collector) AddTotal(n int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.jobsTotal += int64(n)
	c.mu.Unlock()
}

// JobStarted records one job beginning execution.
func (c *Collector) JobStarted() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.jobsStarted++
	c.mu.Unlock()
}

// JobFinished records one job completing successfully.
func (c *Collector) JobFinished() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.jobsFinished++
	c.mu.Unlock()
}

// JobFailed records one job completing with an error (or panic).
func (c *Collector) JobFailed() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.jobsFailed++
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
			c.stages = make(map[string]*stageAgg)
		}
		agg := c.stages[name]
		if agg == nil {
			agg = &stageAgg{}
			c.stages[name] = agg
		}
		agg.count++
		agg.total += d
		c.mu.Unlock()
	}
}

// CellCacheHit records one result-cache request served from a finished cell.
func (c *Collector) CellCacheHit() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.cellHits++
	c.mu.Unlock()
}

// CellCacheMiss records one result-cache request that became the leader of
// a new simulation (the cell's one real execution).
func (c *Collector) CellCacheMiss() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.cellMisses++
	c.mu.Unlock()
}

// CellCacheCoalesced records one request that joined an in-flight
// simulation or checkpoint load of the same cell instead of starting its
// own (single-flight deduplication).
func (c *Collector) CellCacheCoalesced() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.cellCoalesced++
	c.mu.Unlock()
}

// CellEvicted records one finished cell dropped by the result cache's byte
// bound (its next request re-simulates or falls through to the checkpoint
// tier).
func (c *Collector) CellEvicted() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.cellEvicts++
	c.mu.Unlock()
}

// SetCellCacheBytes updates the resident result-cache size gauge (the byte
// account the cache's LRU bound is enforced against).
func (c *Collector) SetCellCacheBytes(n int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.cellBytes = n
	c.mu.Unlock()
}

// CheckpointHit records one cell served from the persistent checkpoint tier
// instead of a fresh simulation.
func (c *Collector) CheckpointHit() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.checkpointHits++
	c.mu.Unlock()
}

// RequestAccepted records one service request admitted into the job queue.
func (c *Collector) RequestAccepted() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.reqAccepted++
	c.mu.Unlock()
}

// RequestRejected records one service request refused by admission control
// (queue full or server draining).
func (c *Collector) RequestRejected() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.reqRejected++
	c.mu.Unlock()
}

// JobCancelled records one accepted job cancelled before completion.
func (c *Collector) JobCancelled() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.jobsCancelled++
	c.mu.Unlock()
}

// JobDeadlineExceeded records one service job failed by its deadline
// (Options.JobTimeout or the request's timeout_s).
func (c *Collector) JobDeadlineExceeded() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.jobsDeadline++
	c.mu.Unlock()
}

// JobPanicked records one service job failed by the last-resort panic
// recovery (the daemon kept serving).
func (c *Collector) JobPanicked() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.jobsPanicked++
	c.mu.Unlock()
}

// CheckpointError records one checkpoint-tier I/O failure (load, save, or
// journal append). Failures demote the store rather than failing cells, so
// this counter plus the degraded gauge are how a sick disk surfaces.
func (c *Collector) CheckpointError() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.checkpointErrors++
	c.mu.Unlock()
}

// SetCheckpointDegraded updates the checkpoint-tier health gauge: true once
// the store has demoted itself to in-memory-only mode.
func (c *Collector) SetCheckpointDegraded(degraded bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if degraded {
		c.checkpointDegraded = 1
	} else {
		c.checkpointDegraded = 0
	}
	c.mu.Unlock()
}

// FaultInjected records one fired fault-injection point (chaos testing;
// always zero in production, where the injector hook is nil).
func (c *Collector) FaultInjected() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.faultsInjected++
	c.mu.Unlock()
}

// WarmBaseFork records one measurement positioned on a warm prepared base
// (a new system or an idle one, restored to the base's checkpoint) instead
// of paying a full functional warmup.
func (c *Collector) WarmBaseFork() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.warmForks++
	c.mu.Unlock()
}

// PreparedEvicted records one warm base dropped by the prepared-mix LRU
// bound (its next use re-warms).
func (c *Collector) PreparedEvicted() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.preparedEvicts++
	c.mu.Unlock()
}

// AddKernel folds one simulated system's kernel counters into the totals.
func (c *Collector) AddKernel(k KernelStats) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.kernel.Cycles += k.Cycles
	c.kernel.CyclesTicked += k.CyclesTicked
	c.kernel.ComponentTicks += k.ComponentTicks
	c.kernel.ComponentSlept += k.ComponentSlept
	c.kernel.Pokes += k.Pokes
	c.mu.Unlock()
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

// CacheStats summarizes the experiment engine's result-cache and warm-base
// activity: how many cell requests were deduplicated (hits + coalesced vs
// misses, which are the simulations actually run), how many measurements
// forked from a warm base instead of re-warming, the result cache's byte
// account and evictions under its LRU bound, and how many cells the
// persistent checkpoint tier served without simulating.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	WarmForks int64 `json:"warm_forks"`
	// Evictions counts finished cells dropped by the result cache's byte
	// bound; Bytes is the current resident size of the cached cells.
	Evictions int64 `json:"evictions"`
	Bytes     int64 `json:"bytes"`
	// PreparedEvictions counts warm bases dropped by the prepared-mix LRU.
	PreparedEvictions int64 `json:"prepared_evictions"`
	// CheckpointHits counts cells loaded from the persistent tier.
	CheckpointHits int64 `json:"checkpoint_hits"`
}

// AdmissionStats summarizes a serving front end's admission control:
// requests admitted into the job queue, requests refused (queue full or
// draining), and accepted jobs cancelled before completion.
type AdmissionStats struct {
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Cancelled int64 `json:"cancelled"`
}

// FailureStats summarizes the failure paths of a long-lived service: jobs
// that hit their deadline, jobs saved by the last-resort panic recovery,
// checkpoint-tier I/O errors and the resulting degraded gauge (0 healthy,
// 1 demoted to in-memory-only), and fired fault-injection points (nonzero
// only under chaos testing).
type FailureStats struct {
	DeadlineExceeded   int64 `json:"jobs_deadline_exceeded"`
	Panicked           int64 `json:"jobs_panicked"`
	CheckpointErrors   int64 `json:"checkpoint_errors"`
	CheckpointDegraded int64 `json:"checkpoint_degraded"`
	FaultsInjected     int64 `json:"faults_injected"`
}

// KernelStats totals the simulation kernel's work over every measured cell
// (sim.System.KernelStats summed over systems and components): simulated
// cycles and how many of them had any component ticking (the rest were
// leapt), component-cycles spent ticking vs sleeping (integrated in closed
// form), and how often one component roused another. A falling slept share
// is a loss of skip efficiency, visible here without a profiler.
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
	s := Snapshot{
		Jobs: JobCounters{
			Total:    c.jobsTotal,
			Started:  c.jobsStarted,
			Finished: c.jobsFinished,
			Failed:   c.jobsFailed,
		},
		Queue: QueueStats{Samples: c.queueSamples, Max: c.queueMax},
		Cache: CacheStats{
			Hits:              c.cellHits,
			Misses:            c.cellMisses,
			Coalesced:         c.cellCoalesced,
			WarmForks:         c.warmForks,
			Evictions:         c.cellEvicts,
			Bytes:             c.cellBytes,
			PreparedEvictions: c.preparedEvicts,
			CheckpointHits:    c.checkpointHits,
		},
		Admission: AdmissionStats{
			Accepted:  c.reqAccepted,
			Rejected:  c.reqRejected,
			Cancelled: c.jobsCancelled,
		},
		Failures: FailureStats{
			DeadlineExceeded:   c.jobsDeadline,
			Panicked:           c.jobsPanicked,
			CheckpointErrors:   c.checkpointErrors,
			CheckpointDegraded: c.checkpointDegraded,
			FaultsInjected:     c.faultsInjected,
		},
		Kernel: c.kernel,
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
// (one `# TYPE` line plus a sample per metric, all under the bwpart_
// namespace), for a service's GET /metrics endpoint. Counters that have
// been monotonic since the collector was built are exported as counters;
// point-in-time values (resident cache bytes, queue-depth aggregates) as
// gauges. Returns the first write error, if any.
func (s Snapshot) WriteProm(w io.Writer) error {
	var err error
	emit := func(name, typ, help string, v float64) {
		if err != nil {
			return
		}
		_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n", name, help, name, typ, name, v)
	}
	emit("bwpart_elapsed_seconds", "gauge", "Seconds since the collector started.", s.ElapsedSeconds)
	emit("bwpart_jobs_total", "counter", "Simulation jobs enqueued.", float64(s.Jobs.Total))
	emit("bwpart_jobs_started_total", "counter", "Simulation jobs started.", float64(s.Jobs.Started))
	emit("bwpart_jobs_finished_total", "counter", "Simulation jobs finished successfully.", float64(s.Jobs.Finished))
	emit("bwpart_jobs_failed_total", "counter", "Simulation jobs failed.", float64(s.Jobs.Failed))
	for _, st := range s.Stages {
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "bwpart_stage_seconds_total{stage=%q} %g\nbwpart_stage_count_total{stage=%q} %d\n",
			st.Name, st.Seconds, st.Name, st.Count)
	}
	emit("bwpart_memctrl_queue_depth_mean", "gauge", "Mean sampled memory-controller queue depth.", s.Queue.Mean)
	emit("bwpart_memctrl_queue_depth_max", "gauge", "Max sampled memory-controller queue depth.", float64(s.Queue.Max))
	emit("bwpart_cell_cache_hits_total", "counter", "Result-cache hits on finished cells.", float64(s.Cache.Hits))
	emit("bwpart_cell_cache_misses_total", "counter", "Result-cache misses (leader simulations).", float64(s.Cache.Misses))
	emit("bwpart_cell_cache_coalesced_total", "counter", "Requests coalesced onto in-flight cells.", float64(s.Cache.Coalesced))
	emit("bwpart_cell_cache_evictions_total", "counter", "Finished cells evicted by the byte bound.", float64(s.Cache.Evictions))
	emit("bwpart_cell_cache_bytes", "gauge", "Resident bytes of cached cells.", float64(s.Cache.Bytes))
	emit("bwpart_warm_forks_total", "counter", "Measurements forked from a warm prepared base.", float64(s.Cache.WarmForks))
	emit("bwpart_prepared_evictions_total", "counter", "Warm bases evicted by the prepared-mix LRU.", float64(s.Cache.PreparedEvictions))
	emit("bwpart_checkpoint_hits_total", "counter", "Cells served from the persistent checkpoint tier.", float64(s.Cache.CheckpointHits))
	emit("bwpart_requests_accepted_total", "counter", "Service requests admitted into the job queue.", float64(s.Admission.Accepted))
	emit("bwpart_requests_rejected_total", "counter", "Service requests refused by admission control.", float64(s.Admission.Rejected))
	emit("bwpart_jobs_cancelled_total", "counter", "Accepted jobs cancelled before completion.", float64(s.Admission.Cancelled))
	emit("bwpart_jobs_deadline_exceeded_total", "counter", "Service jobs failed by their deadline.", float64(s.Failures.DeadlineExceeded))
	emit("bwpart_jobs_panicked_total", "counter", "Service jobs failed by the last-resort panic recovery.", float64(s.Failures.Panicked))
	emit("bwpart_checkpoint_errors_total", "counter", "Checkpoint-tier I/O failures (load, save, journal).", float64(s.Failures.CheckpointErrors))
	emit("bwpart_checkpoint_degraded", "gauge", "Whether the checkpoint store has demoted itself to in-memory-only mode.", float64(s.Failures.CheckpointDegraded))
	emit("bwpart_faults_injected_total", "counter", "Fired fault-injection points (chaos testing only).", float64(s.Failures.FaultsInjected))
	emit("bwpart_kernel_cycles_total", "counter", "Simulated cycles of measured cells.", float64(s.Kernel.Cycles))
	emit("bwpart_kernel_cycles_ticked_total", "counter", "Simulated cycles on which any component ticked.", float64(s.Kernel.CyclesTicked))
	emit("bwpart_kernel_component_ticks_total", "counter", "Component-cycles spent ticking.", float64(s.Kernel.ComponentTicks))
	emit("bwpart_kernel_component_slept_total", "counter", "Component-cycles slept (integrated in closed form).", float64(s.Kernel.ComponentSlept))
	emit("bwpart_kernel_pokes_total", "counter", "Times one component roused another from sleep.", float64(s.Kernel.Pokes))
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

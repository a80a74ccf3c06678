package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.Add(JobsTotal, 5)
	c.Add(JobsStarted, 1)
	c.Add(JobsFinished, 1)
	c.Add(JobsFailed, 1)
	c.StageStart("x")()
	c.RecordQueueDepth(3)
	s := c.Snapshot()
	if s.Jobs.Total != 0 || s.Jobs.Started != 0 || len(s.Stages) != 0 {
		t.Fatalf("nil collector recorded data: %+v", s)
	}
	tk := c.StartTicker(&strings.Builder{}, time.Second)
	tk.Stop()
	tk.Stop() // idempotent
}

func TestCountersAndStages(t *testing.T) {
	c := NewCollector()
	c.Add(JobsTotal, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Add(JobsStarted, 1)
			stop := c.StageStart(StageMeasure)
			stop()
			if i == 0 {
				c.Add(JobsFailed, 1)
			} else {
				c.Add(JobsFinished, 1)
			}
		}(i)
	}
	wg.Wait()
	s := c.Snapshot()
	if s.Jobs.Total != 4 || s.Jobs.Started != 4 || s.Jobs.Finished != 3 || s.Jobs.Failed != 1 {
		t.Fatalf("bad counters: %+v", s.Jobs)
	}
	if len(s.Stages) != 1 || s.Stages[0].Name != StageMeasure || s.Stages[0].Count != 4 {
		t.Fatalf("bad stages: %+v", s.Stages)
	}
	if s.Stages[0].Seconds < 0 {
		t.Fatalf("negative stage time: %+v", s.Stages[0])
	}
}

func TestQueueDepthStats(t *testing.T) {
	c := NewCollector()
	for _, d := range []int{2, 8, 5} {
		c.RecordQueueDepth(d)
	}
	q := c.Snapshot().Queue
	if q.Samples != 3 || q.Max != 8 {
		t.Fatalf("bad queue stats: %+v", q)
	}
	if want := 5.0; q.Mean != want {
		t.Fatalf("mean = %v, want %v", q.Mean, want)
	}
}

func TestStagesSortedAndJSONRoundTrip(t *testing.T) {
	c := NewCollector()
	c.StageStart(StageWarmup)()
	c.StageStart(StageProfile)()
	c.StageStart(StageSettle)()
	s := c.Snapshot()
	for i := 1; i < len(s.Stages); i++ {
		if s.Stages[i-1].Name >= s.Stages[i].Name {
			t.Fatalf("stages not sorted: %+v", s.Stages)
		}
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Stages) != len(s.Stages) {
		t.Fatalf("round trip lost stages: %s", raw)
	}
}

func TestSnapshotLine(t *testing.T) {
	c := NewCollector()
	c.Add(JobsTotal, 2)
	c.Add(JobsStarted, 1)
	c.Add(JobsFinished, 1)
	c.Add(JobsStarted, 1)
	c.Add(JobsFailed, 1)
	c.RecordQueueDepth(7)
	line := c.Snapshot().Line()
	for _, want := range []string{"jobs 1/2 done", "(1 failed)", "queue mean 7.0 max 7"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}

func TestTickerEmitsFinalLine(t *testing.T) {
	c := NewCollector()
	c.Add(JobsTotal, 1)
	c.Add(JobsStarted, 1)
	c.Add(JobsFinished, 1)
	var mu sync.Mutex
	var sb strings.Builder
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return sb.Write(p)
	})
	tk := c.StartTicker(w, time.Hour) // only the final line fires
	tk.Stop()
	mu.Lock()
	out := sb.String()
	mu.Unlock()
	if !strings.Contains(out, "progress: jobs 1/1 done") {
		t.Fatalf("ticker output %q missing final progress line", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestCacheAndAdmissionCounters(t *testing.T) {
	c := NewCollector()
	c.Add(CellHits, 1)
	c.Add(CellMisses, 1)
	c.Add(CellCoalesced, 1)
	c.Add(CellEvictions, 1)
	c.Add(CellEvictions, 1)
	c.Set(CellBytes, 4096)
	c.Add(CheckpointHits, 1)
	c.Add(WarmForks, 1)
	c.Add(PreparedEvictions, 1)
	c.Add(ReqAccepted, 1)
	c.Add(ReqAccepted, 1)
	c.Add(ReqRejected, 1)
	c.Add(JobsCancelled, 1)
	s := c.Snapshot()
	if s.Cache.Hits != 1 || s.Cache.Misses != 1 || s.Cache.Coalesced != 1 {
		t.Fatalf("bad cell counters: %+v", s.Cache)
	}
	if s.Cache.Evictions != 2 || s.Cache.Bytes != 4096 {
		t.Fatalf("bad eviction/bytes accounting: %+v", s.Cache)
	}
	if s.Cache.PreparedEvictions != 1 || s.Cache.CheckpointHits != 1 || s.Cache.WarmForks != 1 {
		t.Fatalf("bad prepared/checkpoint counters: %+v", s.Cache)
	}
	if s.Admission != (AdmissionStats{Accepted: 2, Rejected: 1, Cancelled: 1}) {
		t.Fatalf("bad admission counters: %+v", s.Admission)
	}

	// The bytes gauge overwrites rather than accumulates.
	c.Set(CellBytes, 128)
	if got := c.Snapshot().Cache.Bytes; got != 128 {
		t.Fatalf("bytes gauge = %d, want 128", got)
	}

	// Nil receivers stay no-ops for the new counters too.
	var nilc *Collector
	nilc.Add(CellEvictions, 1)
	nilc.Set(CellBytes, 1)
	nilc.Add(CheckpointHits, 1)
	nilc.Add(ReqAccepted, 1)
	nilc.Add(ReqRejected, 1)
	nilc.Add(JobsCancelled, 1)
}

func TestFailureCounters(t *testing.T) {
	c := NewCollector()
	c.Add(JobsDeadlineExceeded, 1)
	c.Add(JobsDeadlineExceeded, 1)
	c.Add(JobsPanicked, 1)
	c.Add(CheckpointErrors, 1)
	c.Set(CheckpointDegraded, 1)
	c.Add(FaultsInjected, 1)
	c.Add(FaultsInjected, 1)
	c.Add(FaultsInjected, 1)
	f := c.Snapshot().Failures
	want := FailureStats{DeadlineExceeded: 2, Panicked: 1, CheckpointErrors: 1, CheckpointDegraded: 1, FaultsInjected: 3}
	if f != want {
		t.Fatalf("failures = %+v, want %+v", f, want)
	}

	// The degraded gauge is 0/1, settable both ways.
	c.Set(CheckpointDegraded, 0)
	if got := c.Snapshot().Failures.CheckpointDegraded; got != 0 {
		t.Fatalf("degraded gauge = %d after reset, want 0", got)
	}

	line := c.Snapshot().Line()
	for _, wantSub := range []string{"deadline 2", "panicked 1", "ckpt-err 1", "faults 3"} {
		if !strings.Contains(line, wantSub) {
			t.Fatalf("line %q missing %q", line, wantSub)
		}
	}

	// Nil receivers stay no-ops.
	var nilc *Collector
	nilc.Add(JobsDeadlineExceeded, 1)
	nilc.Add(JobsPanicked, 1)
	nilc.Add(CheckpointErrors, 1)
	nilc.Set(CheckpointDegraded, 1)
	nilc.Add(FaultsInjected, 1)
	if nilc.Snapshot().Failures != (FailureStats{}) {
		t.Fatal("nil collector recorded failure data")
	}
}

func TestKernelTotals(t *testing.T) {
	c := NewCollector()
	c.AddKernel(KernelStats{Cycles: 100, CyclesTicked: 60, ComponentTicks: 300, ComponentSlept: 1000, Pokes: 7})
	c.AddKernel(KernelStats{Cycles: 50, CyclesTicked: 50, ComponentTicks: 200, ComponentSlept: 450, Pokes: 3})
	snap := c.Snapshot()
	want := KernelStats{Cycles: 150, CyclesTicked: 110, ComponentTicks: 500, ComponentSlept: 1450, Pokes: 10}
	if snap.Kernel != want {
		t.Fatalf("kernel = %+v, want %+v", snap.Kernel, want)
	}
	if line := snap.Line(); !strings.Contains(line, "kernel 74% slept") {
		t.Fatalf("line %q missing the kernel sleep share", line)
	}
	var sb strings.Builder
	if err := snap.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, wantSub := range []string{"bwpart_kernel_cycles_total 150", "bwpart_kernel_component_slept_total 1450", "bwpart_kernel_pokes_total 10"} {
		if !strings.Contains(sb.String(), wantSub) {
			t.Fatalf("prom output missing %q", wantSub)
		}
	}
	raw, err := json.Marshal(snap)
	if err != nil || !strings.Contains(string(raw), `"kernel":{"cycles":150,"cycles_ticked":110,`) {
		t.Fatalf("stats JSON lacks the kernel block: %s (%v)", raw, err)
	}
	var nilc *Collector
	nilc.AddKernel(want)
	if nilc.Snapshot().Kernel != (KernelStats{}) {
		t.Fatal("nil collector recorded kernel data")
	}
}

func TestWriteProm(t *testing.T) {
	c := NewCollector()
	c.Add(JobsTotal, 3)
	c.Add(JobsStarted, 1)
	c.Add(JobsFinished, 1)
	c.StageStart(StageMeasure)()
	c.Add(CellMisses, 1)
	c.Add(CellEvictions, 1)
	c.Set(CellBytes, 2048)
	c.Add(CheckpointHits, 1)
	c.Add(ReqAccepted, 1)
	c.Add(ReqRejected, 1)
	c.Add(JobsDeadlineExceeded, 1)
	c.Add(JobsPanicked, 1)
	c.Add(CheckpointErrors, 1)
	c.Set(CheckpointDegraded, 1)
	c.Add(FaultsInjected, 1)
	var sb strings.Builder
	if err := c.Snapshot().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"bwpart_jobs_total 3",
		"bwpart_jobs_finished_total 1",
		`bwpart_stage_count_total{stage="measurement"} 1`,
		"bwpart_cell_cache_misses_total 1",
		"bwpart_cell_cache_evictions_total 1",
		"bwpart_cell_cache_bytes 2048",
		"bwpart_checkpoint_hits_total 1",
		"bwpart_requests_accepted_total 1",
		"bwpart_requests_rejected_total 1",
		"# TYPE bwpart_cell_cache_bytes gauge",
		"# TYPE bwpart_jobs_total counter",
		"bwpart_jobs_deadline_exceeded_total 1",
		"bwpart_jobs_panicked_total 1",
		"bwpart_checkpoint_errors_total 1",
		"bwpart_checkpoint_degraded 1",
		"bwpart_faults_injected_total 1",
		"# TYPE bwpart_checkpoint_degraded gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}

	// A failing writer surfaces the error instead of silently truncating.
	fail := writerFunc(func(p []byte) (int, error) { return 0, errShortWrite })
	if err := c.Snapshot().WriteProm(fail); err == nil {
		t.Fatal("WriteProm swallowed a write error")
	}
}

var errShortWrite = errFixed("short write")

type errFixed string

func (e errFixed) Error() string { return string(e) }

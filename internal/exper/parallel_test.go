package exper

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bwpart/internal/metrics"
	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// TestRunJobsDeterministicError forces several jobs to fail under different
// scheduling interleavings and asserts the lowest-index job's error always
// wins, regardless of which failure a worker observed first.
func TestRunJobsDeterministicError(t *testing.T) {
	errLow := errors.New("low-index failure")
	errHigh := errors.New("high-index failure")
	for round := 0; round < 20; round++ {
		// Forced interleaving: job 20 fails only after job 3 has started,
		// and job 3 fails only after job 20's failure has triggered
		// cancellation — so the high-index failure is always observed
		// first, while the low-index job is still in flight.
		started3 := make(chan struct{})
		failed20 := make(chan struct{})
		err := runJobs(context.Background(), 8, nil, 32, func(i int) error {
			switch i {
			case 3:
				close(started3)
				<-failed20
				return errLow
			case 20:
				<-started3
				close(failed20)
				return errHigh
			default:
				return nil
			}
		})
		if err == nil {
			t.Fatal("expected error")
		}
		if !strings.HasPrefix(err.Error(), "job 3:") {
			t.Fatalf("round %d: primary error is not the lowest-index failure: %v", round, err)
		}
		if !errors.Is(err, errLow) {
			t.Fatalf("round %d: lost the low-index error: %v", round, err)
		}
		// errHigh triggered the cancellation, so it must be retained too.
		if !errors.Is(err, errHigh) {
			t.Fatalf("round %d: lost the high-index error: %v", round, err)
		}
		if !strings.Contains(err.Error(), "1 more job error") {
			t.Fatalf("round %d: multi-error rendering lost the count: %v", round, err)
		}
	}
}

func TestRunJobsPanicRecovery(t *testing.T) {
	err := runJobs(context.Background(), 4, nil, 8, func(i int) error {
		if i == 2 {
			panic("simulated model blow-up")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panicking job did not fail the batch")
	}
	if !strings.Contains(err.Error(), "job 2 panicked") ||
		!strings.Contains(err.Error(), "simulated model blow-up") {
		t.Fatalf("panic not converted to a descriptive error: %v", err)
	}
}

func TestRunJobsCancelsDispatchOnFailure(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	err := runJobs(context.Background(), 2, nil, 1000, func(i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch: %d jobs started", n)
	}
}

func TestRunJobsExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	var once sync.Once
	err := runJobs(ctx, 2, nil, 1000, func(i int) error {
		started.Add(1)
		once.Do(cancel)
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("external cancellation did not stop dispatch: %d jobs started", n)
	}
}

func TestRunJobsParallelismCap(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := runJobs(context.Background(), workers, nil, 64, func(i int) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent jobs, cap is %d", p, workers)
	}
}

func TestRunJobsReportsCounters(t *testing.T) {
	col := obs.NewCollector()
	boom := errors.New("boom")
	_ = runJobs(context.Background(), 1, col, 4, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	s := col.Snapshot()
	if s.Jobs.Total != 4 || s.Jobs.Started != 4 || s.Jobs.Finished != 3 || s.Jobs.Failed != 1 {
		t.Fatalf("bad counters: %+v", s.Jobs)
	}
}

func TestRunJobsEmpty(t *testing.T) {
	if err := runJobs(context.Background(), 4, nil, 0, func(int) error { return errors.New("no") }); err != nil {
		t.Fatal(err)
	}
}

func TestConfigParallelismOverride(t *testing.T) {
	cfg := Quick()
	cfg.Parallelism = 2
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.parallelism(); got != 2 {
		t.Fatalf("parallelism = %d, want 2", got)
	}
	t.Setenv(ParallelismEnv, "5")
	cfg.Parallelism = 0
	r2, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.parallelism(); got != 5 {
		t.Fatalf("env parallelism = %d, want 5", got)
	}
	t.Setenv(ParallelismEnv, "bogus")
	if got := r2.parallelism(); got < 1 {
		t.Fatalf("bogus env collapsed parallelism to %d", got)
	}
}

// TestRunGrid checks the engine end to end: deterministic row-major result
// order, observability counters, and agreement with a serial RunMix.
func TestRunGrid(t *testing.T) {
	cfg := Quick()
	cfg.Obs = obs.NewCollector()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	schemes := []string{"equal", "square-root"}
	runs, err := r.RunGrid(context.Background(), []workload.Mix{mix}, schemes)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	for i, scheme := range schemes {
		if runs[i].Scheme != scheme || runs[i].Mix.Name != mix.Name {
			t.Fatalf("run %d is %s/%s, want %s/%s", i, runs[i].Mix.Name, runs[i].Scheme, mix.Name, scheme)
		}
	}
	// Same cell via the serial path must agree exactly (determinism).
	serial, err := r.RunMix(mix, "equal")
	if err != nil {
		t.Fatal(err)
	}
	for _, obj := range metrics.Objectives() {
		if serial.Values[obj] != runs[0].Values[obj] {
			t.Fatalf("parallel and serial runs disagree on %v: %v vs %v",
				obj, runs[0].Values[obj], serial.Values[obj])
		}
	}
	s := cfg.Obs.Snapshot()
	if s.Jobs.Finished < 2 || s.Jobs.Failed != 0 {
		t.Fatalf("bad engine counters: %+v", s.Jobs)
	}
	if len(s.Stages) == 0 {
		t.Fatalf("no stage timings collected: %+v", s)
	}
	if s.Queue.Samples == 0 {
		t.Fatalf("no queue-depth samples collected: %+v", s)
	}
	// Two simulated cells of a four-app private-L2 system (13 components):
	// every component-cycle is either ticked or slept, and most are slept.
	k, cycles := s.Kernel, 2*(cfg.SettleCycles+cfg.MeasureCycles)
	if k.Cycles != cycles || k.ComponentTicks+k.ComponentSlept != 13*cycles ||
		k.CyclesTicked > cycles || k.ComponentSlept < k.ComponentTicks {
		t.Fatalf("bad kernel totals for %d cycles: %+v", cycles, k)
	}
	unknown, err := r.RunGrid(context.Background(), []workload.Mix{mix}, []string{"equal", "no-such-scheme"})
	if err == nil {
		t.Fatalf("unknown scheme accepted: %v", unknown)
	}
	if !strings.Contains(err.Error(), "no-such-scheme") {
		t.Fatalf("error does not name the bad cell: %v", err)
	}
}

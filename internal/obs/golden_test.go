package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current renderers")

// fullSnapshot is a Snapshot whose every numeric field holds a distinct
// non-zero value, so a renderer that reads the wrong field, or drops one,
// changes a golden.
func fullSnapshot() Snapshot {
	return Snapshot{
		ElapsedSeconds: 12.5,
		Jobs:           JobCounters{Total: 98, Started: 97, Finished: 94, Failed: 3},
		Stages: []StageStat{
			{Name: StageProfile, Count: 16, Seconds: 1.25},
			{Name: StageMeasure, Count: 95, Seconds: 40.75},
			{Name: StageSettle, Count: 96, Seconds: 6.5},
			{Name: StageWarmup, Count: 14, Seconds: 2.125},
		},
		Queue: QueueStats{Samples: 760, Mean: 5.0625, Max: 19},
		Cache: CacheStats{
			Hits: 21, Misses: 22, Coalesced: 23, WarmForks: 24,
			Evictions: 25, Bytes: 26000, PreparedEvictions: 27, CheckpointHits: 28,
		},
		Admission: AdmissionStats{Accepted: 31, Rejected: 32, Cancelled: 33},
		Failures: FailureStats{
			DeadlineExceeded: 41, Panicked: 42, CheckpointErrors: 43,
			CheckpointDegraded: 1, FaultsInjected: 45,
		},
		Kernel: KernelStats{
			Cycles: 5100, CyclesTicked: 5200, ComponentTicks: 5300,
			ComponentSlept: 5400, Pokes: 5500,
		},
	}
}

// TestRenderGoldens pins every byte the three renderers produce — the
// -progress line, GET /metrics, and the -stats-json file — for one snapshot.
func TestRenderGoldens(t *testing.T) {
	snap := fullSnapshot()
	var prom bytes.Buffer
	if err := snap.WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"line.golden":      []byte(snap.Line() + "\n"),
		"prom.golden":      prom.Bytes(),
		"stats.json":       append(raw, '\n'),
		"line_zero.golden": []byte(Snapshot{}.Line() + "\n"),
	} {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed (go test ./internal/obs -update rewrites it):\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestEveryCounter drives each counter through the collector a distinct
// number of times and compares the whole Snapshot with a literal: a counter
// that lands in another's field, or in none, shows up as a wrong value.
func TestEveryCounter(t *testing.T) {
	c := &Collector{} // zero started: ElapsedSeconds stays 0
	times := func(n int, bump func()) {
		for i := 0; i < n; i++ {
			bump()
		}
	}
	c.AddTotal(2)
	times(3, c.JobStarted)
	times(4, c.JobFinished)
	times(5, c.JobFailed)
	times(6, c.CellCacheHit)
	times(7, c.CellCacheMiss)
	times(8, c.CellCacheCoalesced)
	times(9, c.CellEvicted)
	c.SetCellCacheBytes(99) // gauges overwrite
	c.SetCellCacheBytes(10)
	times(11, c.WarmBaseFork)
	times(12, c.PreparedEvicted)
	times(13, c.CheckpointHit)
	times(14, c.RequestAccepted)
	times(15, c.RequestRejected)
	times(16, c.JobCancelled)
	times(17, c.JobDeadlineExceeded)
	times(18, c.JobPanicked)
	times(19, c.CheckpointError)
	c.SetCheckpointDegraded(true) // a 0/1 gauge
	times(21, c.FaultInjected)
	c.AddKernel(KernelStats{Cycles: 22, CyclesTicked: 23, ComponentTicks: 24, ComponentSlept: 25, Pokes: 26})

	want := Snapshot{
		Jobs: JobCounters{Total: 2, Started: 3, Finished: 4, Failed: 5},
		Cache: CacheStats{
			Hits: 6, Misses: 7, Coalesced: 8, Evictions: 9, Bytes: 10,
			WarmForks: 11, PreparedEvictions: 12, CheckpointHits: 13,
		},
		Admission: AdmissionStats{Accepted: 14, Rejected: 15, Cancelled: 16},
		Failures: FailureStats{
			DeadlineExceeded: 17, Panicked: 18, CheckpointErrors: 19,
			CheckpointDegraded: 1, FaultsInjected: 21,
		},
		Kernel: KernelStats{Cycles: 22, CyclesTicked: 23, ComponentTicks: 24, ComponentSlept: 25, Pokes: 26},
	}
	if got := c.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot after bumping every counter:\n%+v\nwant:\n%+v", got, want)
	}
}

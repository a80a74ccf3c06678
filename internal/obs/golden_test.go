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
		Admission: AdmissionStats{Accepted: 31, Rejected: 32, Cancelled: 33, Done: 34, Failed: 35, Hits: 36},
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

// TestEveryCounter drives each row of the counters table through the
// collector a distinct number of times (row k: k + 2) and compares the whole
// Snapshot with a literal: a counter that lands in another's field, or in
// none, shows up as a wrong value.
func TestEveryCounter(t *testing.T) {
	c := &Collector{} // zero started: ElapsedSeconds stays 0
	for k := range counters {
		k, n := Counter(k), int64(k)+2
		switch {
		case k == CheckpointDegraded: // a 0/1 gauge
			c.Set(k, 1)
		case counters[k].gauge: // gauges overwrite
			c.Set(k, 99)
			c.Set(k, n)
		default:
			for i := int64(0); i < n; i++ {
				c.Add(k, 1)
			}
		}
	}

	want := Snapshot{
		Jobs: JobCounters{Total: 2, Started: 3, Finished: 4, Failed: 5},
		Cache: CacheStats{
			Hits: 6, Misses: 7, Coalesced: 8, Evictions: 9, Bytes: 10,
			WarmForks: 11, PreparedEvictions: 12, CheckpointHits: 13,
		},
		Admission: AdmissionStats{Accepted: 14, Rejected: 15, Cancelled: 16, Done: 17, Failed: 18, Hits: 19},
		Failures: FailureStats{
			DeadlineExceeded: 20, Panicked: 21, CheckpointErrors: 22,
			CheckpointDegraded: 1, FaultsInjected: 24,
		},
		Kernel: KernelStats{Cycles: 25, CyclesTicked: 26, ComponentTicks: 27, ComponentSlept: 28, Pokes: 29},
	}
	if got := c.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot after bumping every counter:\n%+v\nwant:\n%+v", got, want)
	}
}

// TestEveryFieldHasOneRow walks Snapshot by reflection: every integer leaf
// outside ElapsedSeconds, Stages and Queue must be the target of exactly one
// counters row, so a new field without a row — or two rows on one field —
// fails here rather than reading zero in production.
func TestEveryFieldHasOneRow(t *testing.T) {
	var s Snapshot
	paths := make(map[*int64]string)
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case reflect.Int64:
			paths[v.Addr().Interface().(*int64)] = path
		default:
			t.Errorf("%s: a %s leaf cannot be a counter", path, v.Kind())
		}
	}
	top := reflect.ValueOf(&s).Elem()
	for i := 0; i < top.NumField(); i++ {
		switch name := top.Type().Field(i).Name; name {
		case "ElapsedSeconds", "Stages", "Queue":
		default:
			walk(name, top.Field(i))
		}
	}
	claims := make(map[*int64]int)
	for k := range counters {
		p := counters[k].field(&s)
		if _, ok := paths[p]; !ok {
			t.Errorf("row %s points outside the counter fields of Snapshot", counters[k].name)
		}
		claims[p]++
	}
	for p, path := range paths {
		if claims[p] != 1 {
			t.Errorf("Snapshot.%s is claimed by %d rows, want 1", path, claims[p])
		}
	}
}

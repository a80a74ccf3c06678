package exper

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"bwpart/internal/dram"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// tinyConfig is a configuration with windows short enough to simulate one
// cell per system case in a table test.
func tinyConfig() Config {
	cfg := Quick()
	cfg.Sim.WarmupInstructions = 5_000
	cfg.ProfileCycles = 20_000
	cfg.SettleCycles = 2_000
	cfg.MeasureCycles = 20_000
	return cfg
}

// systemCases are the System values the studies resolve, each with the edit a
// runner over the edited configuration makes instead.
func systemCases() []struct {
	name   string
	system System
	factor int // the mix's copies on this system
	edit   func(*Config)
} {
	scale := func(f float64) func(*Config) {
		return func(c *Config) { c.Sim.DRAM = c.Sim.DRAM.ScaleBandwidth(f) }
	}
	quota := func(ways ...int) func(*Config) {
		return func(c *Config) {
			c.Sim.SharedL2, c.Sim.L2WayQuota, c.Sim.L2.SizeBytes = true, ways, 512<<10
		}
	}
	seed := func(s int64) func(*Config) { return func(c *Config) { c.Seed = s } }
	return []struct {
		name   string
		system System
		factor int
		edit   func(*Config)
	}{
		{"scale 2", System{Scale: 2}, 2, scale(2)},
		{"scale 4", System{Scale: 4}, 4, scale(4)},
		{"open page", System{OpenPage: true}, 1, func(c *Config) { c.Sim.DRAM.Policy = dram.OpenPage }},
		{"quota 2,2,2,2", System{L2Quota: "[2 2 2 2]"}, 1, quota(2, 2, 2, 2)},
		{"quota 1,1,1,5", System{L2Quota: "[1 1 1 5]"}, 1, quota(1, 1, 1, 5)},
		{"quota 5,1,1,1", System{L2Quota: "[5 1 1 1]"}, 1, quota(5, 1, 1, 1)},
		{"seed a", System{Seed: subSeed(1, 0)}, 1, seed(subSeed(1, 0))},
		{"seed b", System{Seed: subSeed(1, 1)}, 1, seed(subSeed(1, 1))},
	}
}

// TestSystemKeysLikeEditedRunner: a cell on a System keys exactly as the same
// cell on a runner built over the edited configuration — its cell key, its
// checkpoint file (the edited runner loads what the System's cell saved) and
// its alone profiles — so checkpoints written by either are found by the
// other.
func TestSystemKeysLikeEditedRunner(t *testing.T) {
	dir := t.TempDir()
	store, err := NewCheckpointStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.Checkpoint = store
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	homo1, err := workload.MixByName("homo-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range systemCases() {
		t.Run(tc.name, func(t *testing.T) {
			edited := cfg
			tc.edit(&edited)
			sub, err := NewRunner(edited)
			if err != nil {
				t.Fatal(err)
			}
			on, err := r.system(tc.system)
			if err != nil {
				t.Fatal(err)
			}
			c := GridCell{Mix: homo1.Scale(tc.factor), Scheme: "equal", System: tc.system}
			if got, want := cellKey(on.fp, c), cellKey(sub.own.fp, c); got != want {
				t.Errorf("cell key %s, edited runner's %s", got, want)
			}
			if got, want := store.cellPath(on.fp, c), store.cellPath(sub.own.fp, c); got != want {
				t.Errorf("checkpoint path %s, edited runner's %s", got, want)
			}
			name := homo1.Benchmarks[0]
			got, err := r.aloneOn(on, name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sub.Alone(name)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("alone profile %+v, edited runner's %+v", got, want)
			}
			runs, err := r.RunCells(context.Background(), []GridCell{c}, nil)
			if err != nil {
				t.Fatal(err)
			}
			loaded, ok := store.Load(sub, c.Mix, c.Scheme)
			if !ok {
				t.Fatal("the edited runner finds no checkpoint of the System's cell")
			}
			if !reflect.DeepEqual(loaded, runs[0]) {
				t.Error("the edited runner loads another cell than the System's")
			}
		})
	}
	// The quotas of one shared L2 profile alone once: sim.ProfileAlone drops
	// the quota.
	var fps []string
	for _, quota := range []string{"[2 2 2 2]", "[1 1 1 5]", "[5 1 1 1]"} {
		on, err := r.system(System{L2Quota: quota})
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, on.aloneFP)
	}
	if fps[0] != fps[1] || fps[0] != fps[2] {
		t.Errorf("the quotas' alone profiles key apart: %v", fps)
	}
}

// TestSystemRejectsBadValues: a System no runner could simulate fails its
// resolution, and so every cell naming it, before anything runs.
func TestSystemRejectsBadValues(t *testing.T) {
	r, err := NewRunner(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("homo-1")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []System{{Scale: -2}, {Scale: 1e300}, {Scale: 1e-300}, {L2Quota: "[2 x]"}} {
		if _, err := r.SystemConfig(s); err == nil {
			t.Errorf("%+v resolved", s)
		}
		if _, err := r.RunCells(context.Background(), []GridCell{{Mix: mix, Scheme: "equal", System: s}}, nil); err == nil {
			t.Errorf("a cell on %+v ran", s)
		}
	}
	if own, err := r.system(System{Scale: 1}); err != nil || own != r.own {
		t.Errorf("System{Scale: 1} resolves to %p (%v), want the runner's own system", own, err)
	}
}

// TestSystemsResolveConcurrently drives one runner's shared state — the
// system table, the alone profiles, the warm-base registry and the result
// cache — from concurrent batches on four systems; `make race` runs it under
// the race detector. Each system's run must equal a separate runner's over
// the edited configuration.
func TestSystemsResolveConcurrently(t *testing.T) {
	cfg := tinyConfig()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		system System
		edit   func(*Config)
	}{
		{System{Scale: 1}, func(*Config) {}},
		{System{Scale: 2}, func(c *Config) { c.Sim.DRAM = c.Sim.DRAM.ScaleBandwidth(2) }},
		{System{Seed: 7}, func(c *Config) { c.Seed = 7 }},
		{System{Seed: 8}, func(c *Config) { c.Seed = 8 }},
	}
	got := make([]*MixRun, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, tc := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cells := []GridCell{{Mix: mix, Scheme: "square-root", System: tc.system}}
			var runs []*MixRun
			if runs, errs[i] = r.RunCells(context.Background(), cells, nil); errs[i] == nil {
				got[i] = runs[0]
			}
		}()
	}
	wg.Wait()
	for i, tc := range cases {
		if errs[i] != nil {
			t.Fatalf("%+v: %v", tc.system, errs[i])
		}
		edited := cfg
		tc.edit(&edited)
		sub, err := NewRunner(edited)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sub.RunMix(mix, "square-root")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%+v: the run differs from a runner's over the edited configuration", tc.system)
		}
	}
	if hsp := metrics.ObjectiveHsp; got[0].Values[hsp] == got[1].Values[hsp] || got[2].Values[hsp] == got[3].Values[hsp] {
		t.Error("the systems measured alike: the edits reached no simulation")
	}
}

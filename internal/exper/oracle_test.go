package exper

import (
	"context"
	"reflect"
	"testing"

	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// coldRun is the engine's cold oracle: cell c measured on a system of its own,
// built and warmed for it alone. It resolves c.System on r and takes the alone
// vectors from r, which should be a runner other than the one under test
// (coldRunner), then runs sim.New, Warmup, the policy's apply and measure and
// evaluates the objectives. It shares the policy registry and the measure tail
// with production, and none of the lookup order, the result cache, the warm
// bases or the fork, which is what the differential tests compare it with.
func coldRun(r *Runner, c GridCell) (*MixRun, error) {
	on, err := r.system(c.System)
	if err != nil {
		return nil, err
	}
	pol, err := policyFor(c)
	if err != nil {
		return nil, err
	}
	apcAlone, api, ipcAlone, err := r.aloneVectors(on, c.Mix)
	if err != nil {
		return nil, err
	}
	profs, err := c.Mix.Profiles()
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(on.cfg.Sim, profs)
	if err != nil {
		return nil, err
	}
	sys.Warmup()
	a := policyArgs{cell: c, profs: profs, apcAlone: apcAlone, api: api, seed: on.cfg.Seed}
	if err := pol.apply(sys, a); err != nil {
		return nil, err
	}
	res, est, err := r.measure(sys, pol, a)
	if err != nil {
		return nil, err
	}
	return newMixRun(a, ipcAlone, res, est)
}

// coldRunner is a fresh runner over cfg for coldRun: no collector, checkpoint
// store or result cache of cfg's, so it shares nothing with the runner under
// test.
func coldRunner(t testing.TB, cfg Config) *Runner {
	t.Helper()
	cfg.Obs, cfg.Checkpoint, cfg.Cache = nil, nil, nil
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// cachedRuns returns every finished cell in r's result cache.
func cachedRuns(r *Runner) []*MixRun {
	r.cfg.Cache.mu.Lock()
	defer r.cfg.Cache.mu.Unlock()
	var runs []*MixRun
	for _, e := range r.cfg.Cache.entries {
		if e.finished() {
			runs = append(runs, e.val.run)
		}
	}
	return runs
}

// checkCachedMatchCold checks that every cell r holds in its result cache (all
// on r's own system) equals coldRun of it on a fresh runner over r's
// configuration, running the cold cells in parallel as r would. It returns
// how many cells it checked.
func checkCachedMatchCold(t *testing.T, r *Runner) int {
	t.Helper()
	cold := coldRunner(t, r.Config())
	runs := cachedRuns(r)
	want := make([]*MixRun, len(runs))
	if err := runJobs(context.Background(), r.parallelism(), nil, len(runs), func(i int) (err error) {
		want[i], err = coldRun(cold, runs[i].cell())
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i, run := range runs {
		if !reflect.DeepEqual(run, want[i]) {
			t.Errorf("cached %s/%s diverges from its cold run\nmemo: %+v\ncold: %+v", run.Mix.Name, run.Scheme, run, want[i])
		}
	}
	return len(runs)
}

// TestSystemCellsMatchCold: cells on every kind of System, a share-taking
// policy of each kind and an online policy, resolved in one batch through
// RunCells (shared alone profiles, warm bases and forks), equal coldRun of the
// same cells.
func TestSystemCellsMatchCold(t *testing.T) {
	cfg := memoTestConfig()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		t.Fatal(err)
	}
	shares := []float64{0.4, 0.3, 0.2, 0.1}
	cases := []struct {
		name string
		cell GridCell
	}{
		{"scale 2", GridCell{Mix: mix, Scheme: "square-root", System: System{Scale: 2}}},
		{"open page", GridCell{Mix: mix, Scheme: "square-root", System: System{OpenPage: true}}},
		{"quota 1,1,1,5", GridCell{Mix: mix, Scheme: "square-root", System: System{L2Quota: "[1 1 1 5]"}}},
		{"seed 7", GridCell{Mix: mix, Scheme: "square-root", System: System{Seed: 7}}},
		{"start-time-fair", GridCell{Mix: mix, Scheme: "start-time-fair", Shares: shares}},
		{"budget", GridCell{Mix: mix, Scheme: "budget", Shares: shares}},
		{"online", GridCell{Mix: mix, Scheme: onlinePrefix + "square-root", Epoch: 40_000, Epochs: 3}},
	}
	cells := make([]GridCell, len(cases))
	for i, tc := range cases {
		cells[i] = tc.cell
	}
	got, err := r.RunCells(context.Background(), cells, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold := coldRunner(t, cfg)
	for i, tc := range cases {
		want, err := coldRun(cold, tc.cell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: the RunCells cell diverges from its cold run\ngot:  %+v\nwant: %+v", tc.name, got[i], want)
		}
	}
}

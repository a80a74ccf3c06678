package exper

import (
	"context"
	"testing"

	"bwpart/internal/obs"
)

// benchFigureConfig amplifies the warmup relative to the measured windows,
// as benchSweepConfig does, so the pair isolates what memoization saves on
// a full figure pass: cold pays one warmup per cell, memoized one per mix
// plus a fork per cell, and cells repeated across figures (Figure 1's mix
// and Figure 3's baselines reappear in Figure 2's grid) are free hits.
func benchFigureConfig() Config {
	cfg := Quick()
	cfg.Sim.WarmupInstructions = 800_000
	cfg.ProfileCycles = 150_000
	cfg.SettleCycles = 20_000
	cfg.MeasureCycles = 100_000
	return cfg
}

// runFigureSuite executes one full Figure 1 + Figure 2 + Figure 3 pass on a
// fresh runner, so every iteration starts from an empty cache and measures
// the whole warm-up-and-dedup lifecycle, not steady-state hits. It returns
// the runner, whose result cache holds every cell the suite resolved.
func runFigureSuite(b *testing.B, cfg Config) *Runner {
	b.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Figure1(); err != nil {
		b.Fatal(err)
	}
	if _, err := r.Figure2(); err != nil {
		b.Fatal(err)
	}
	if _, err := r.Figure3(); err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFigureSuite compares a full Figure 1-3 pass through the memoized
// executor (shared warm bases, content-addressed cell dedup) against the same
// cells simulated cold. The cold arm runs the memoized suite untimed, then
// times coldRun over the unique cells it resolved (105 of the 112 requested),
// fanned out as the engine fans out, on a fresh runner that profiles its
// benchmarks once, as the memoized arm's does: every cell warms and measures a
// system of its own. benchjson derives figures_dedup_speedup from the pair
// and records the memoized arm's unique-vs-requested cell counts and its
// functional warmups (figures_warmups, gated on any growth).
func BenchmarkFigureSuite(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runs := cachedRuns(runFigureSuite(b, benchFigureConfig()))
			cold := coldRunner(b, benchFigureConfig())
			b.StartTimer()
			if err := runJobs(context.Background(), cold.parallelism(), nil, len(runs), func(k int) error {
				_, err := coldRun(cold, runs[k].cell())
				return err
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		var last obs.Snapshot
		for i := 0; i < b.N; i++ {
			cfg := benchFigureConfig()
			cfg.Obs = obs.NewCollector()
			runFigureSuite(b, cfg)
			last = cfg.Obs.Snapshot()
		}
		b.ReportMetric(float64(last.Cache.Hits+last.Cache.Misses+last.Cache.Coalesced), "requested_cells")
		b.ReportMetric(float64(last.Cache.Misses), "unique_cells")
		b.ReportMetric(float64(stageCount(last, obs.StageWarmup)), "warmups")
	})
}

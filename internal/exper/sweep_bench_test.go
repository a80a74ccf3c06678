package exper

import (
	"context"
	"testing"

	"bwpart/internal/workload"
)

// benchSweepConfig amplifies the warmup so the benchmark pair isolates what
// checkpointed sweeps save: with K schemes per mix, the cold path pays the
// functional warmup K times, the forked path once. The measured windows stay
// short so warmup dominates, as it does in full-fidelity sweeps (Default()
// fast-forwards 100x more instructions than Quick()).
func benchSweepConfig() Config {
	cfg := Quick()
	cfg.Sim.WarmupInstructions = 1_500_000
	cfg.ProfileCycles = 150_000
	cfg.SettleCycles = 20_000
	cfg.MeasureCycles = 100_000
	return cfg
}

// benchSweepRunner builds a runner with the alone cache pre-warmed, so both
// sweep variants measure only the per-cell simulation work. The cold arm
// disables memoization: with the result cache on, every iteration past the
// first would be a free cache hit and the pair would measure nothing.
func benchSweepRunner(b *testing.B, memoize bool) (*Runner, workload.Mix, []string) {
	b.Helper()
	cfg := benchSweepConfig()
	cfg.NoMemoize = !memoize
	r, err := NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mix, err := workload.MixByName("hetero-1")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range mix.Benchmarks {
		if _, err := r.Alone(name); err != nil {
			b.Fatal(err)
		}
	}
	return r, mix, []string{NoPartitioning, "equal", "square-root", "priority-apc"}
}

// BenchmarkSweep compares one mix x K schemes simulated cold (one warmup per
// cell) against the forked path RunGrid uses (one warmup and snapshot per mix,
// then a new system built from the checkpoint per cell, as forkPrepared
// does). benchjson derives sweep_fork_speedup from the pair.
func BenchmarkSweep(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		r, mix, schemes := benchSweepRunner(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, scheme := range schemes {
				if _, err := r.RunMix(mix, scheme); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("forked", func(b *testing.B) {
		r, mix, schemes := benchSweepRunner(b, false)
		apcAlone, api, _, err := r.aloneVectors(r.own, mix)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, _, err := r.prepareMix(r.own, mix)
			if err != nil {
				b.Fatal(err)
			}
			for _, scheme := range schemes {
				sys, err := r.forkPrepared(p)
				if err != nil {
					b.Fatal(err)
				}
				pol, a := policies[scheme], policyArgs{apcAlone: apcAlone, api: api}
				if err := pol.apply(sys, a); err != nil {
					b.Fatal(err)
				}
				if _, _, err := r.measure(sys, pol, a); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkRunGridHitWide measures the hit path through RunGrid over a
// working set wider than the warm-base registry: one op is one one-cell
// RunGrid hit on each of the 14 Table IV mixes (registry capacity 8). A hit
// is resolved by the lookup order's first pass, so it must cost microseconds;
// pinning a warm base first would re-warm evicted mixes at milliseconds each.
func BenchmarkRunGridHitWide(b *testing.B) {
	r, err := NewRunner(Quick())
	if err != nil {
		b.Fatal(err)
	}
	mixes, schemes := workload.AllMixes(), []string{"equal"}
	if _, err := r.RunGrid(context.Background(), mixes, schemes); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for m := range mixes {
			if _, err := r.RunGrid(context.Background(), mixes[m:m+1], schemes); err != nil {
				b.Fatal(err)
			}
		}
	}
}

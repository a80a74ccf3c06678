package sim

import (
	"testing"

	"bwpart/internal/workload"
)

// idleHeavyProfile is a latency-bound, low-MLP workload in the shape of a
// pointer chase (mcf-like): dispatch is fast and every cold load stalls
// the core for a full DRAM round trip with nothing else to do — the
// memory-bound phase shape where most simulated cycles are dead and the
// cycle-skipping kernel pays off most.
func idleHeavyProfile() workload.Profile {
	return workload.Profile{
		Name:         "idle-heavy",
		MemRefsPerKI: 100,
		ColdPerKI:    50,
		WriteFrac:    0,
		SeqFrac:      0,
		BaseIPC:      4.0,
		MLP:          1,
	}
}

// benchSystem assembles and settles a benchmark system under run outside
// the timer.
func benchSystem(b *testing.B, run loop, profs []workload.Profile) *System {
	b.Helper()
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 50_000
	sys, err := New(cfg, profs)
	if err != nil {
		b.Fatal(err)
	}
	sys.Warmup()
	run(sys, 50_000)
	sys.ResetStats()
	return sys
}

func benchRun(b *testing.B, run loop, profs []workload.Profile) {
	sys := benchSystem(b, run, profs)
	const window = 200_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(sys, window)
	}
	b.ReportMetric(float64(window*int64(b.N))/b.Elapsed().Seconds(), "cycles/s")
}

// warmedHetero5 builds and warms the system a runner prepares for the Table
// IV mix hetero-5 under the experiment engine's Quick configuration (a
// 100k-instruction functional warmup): a prepared base's checkpoint is one
// Snapshot of it.
func warmedHetero5(tb testing.TB) *System {
	tb.Helper()
	mix, err := workload.MixByName("hetero-5")
	if err != nil {
		tb.Fatal(err)
	}
	profs, err := mix.Profiles()
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 100_000
	sys, err := New(cfg, profs)
	if err != nil {
		tb.Fatal(err)
	}
	sys.Warmup()
	return sys
}

// BenchmarkSnapshot measures one checkpoint of a warmed 4-core system. Its
// B/op is what a prepared base keeps resident (benchjson gates it as
// snapshot_bytes_per_op; TestCheckpointBytesCeiling is its tier-1 ceiling).
func BenchmarkSnapshot(b *testing.B) {
	sys := warmedHetero5(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunIdle measures System.Run on an idle-heavy (latency-bound)
// mix under the reference loop and the wake scheduler; the wake scheduler's acceptance bar is a >= 2x
// speedup here.
func BenchmarkRunIdle(b *testing.B) {
	profs := []workload.Profile{idleHeavyProfile(), idleHeavyProfile()}
	b.Run("naive", func(b *testing.B) { benchRun(b, naiveLoop, profs) })
	b.Run("skip", func(b *testing.B) { benchRun(b, wakeLoop, profs) })
}

// BenchmarkRunMixed measures System.Run on the Table IV mix hetero-1 (milc,
// soplex, zeusmp, bzip2): at any moment some cores are dispatching and
// others are stalled on memory, so the whole system is almost never
// quiescent — the regime where only per-component sleeping saves work.
func BenchmarkRunMixed(b *testing.B) {
	var profs []workload.Profile
	for _, name := range []string{"milc", "soplex", "zeusmp", "bzip2"} {
		p, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		profs = append(profs, p)
	}
	b.Run("naive", func(b *testing.B) { benchRun(b, naiveLoop, profs) })
	b.Run("skip", func(b *testing.B) { benchRun(b, wakeLoop, profs) })
}

// BenchmarkRunSaturated measures System.Run on a bandwidth-saturated mix
// (four streaming lbm instances): completions land every burst, spans are
// short, and the wake scheduler must not regress materially.
func BenchmarkRunSaturated(b *testing.B) {
	lbm, err := workload.ByName("lbm")
	if err != nil {
		b.Fatal(err)
	}
	profs := []workload.Profile{lbm, lbm, lbm, lbm}
	b.Run("naive", func(b *testing.B) { benchRun(b, naiveLoop, profs) })
	b.Run("skip", func(b *testing.B) { benchRun(b, wakeLoop, profs) })
}

package bwpart_test

// One benchmark per table and figure of the paper's evaluation. Each bench
// regenerates its artifact at Quick fidelity and reports the headline
// series via b.ReportMetric, so `go test -bench . -benchmem` doubles as a
// reproduction run. Full-fidelity numbers are recorded in EXPERIMENTS.md
// (produced by cmd/figures without -quick).

import (
	"context"
	"math"
	"testing"

	"bwpart"
)

func quickRunner(b *testing.B) *bwpart.Runner {
	b.Helper()
	r, err := bwpart.NewRunner(bwpart.QuickExperiments())
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable3 regenerates the benchmark characterization (Table III)
// and reports how many of the 16 intensity classes match the paper.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		t3, err := r.Table3()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(t3.ClassMatches()), "classes-matching/16")
	}
}

// BenchmarkTable4 regenerates the workload-construction table (Table IV)
// and reports the mean absolute RSD deviation from the paper's values.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t4, err := bwpart.Table4()
		if err != nil {
			b.Fatal(err)
		}
		var dev float64
		for _, row := range t4.Rows {
			rsd, _ := t4.Value(row.Key, "RSD")
			paper, _ := t4.Value(row.Key, "RSD(paper)")
			dev += math.Abs(rsd - paper)
		}
		b.ReportMetric(dev/float64(len(t4.Rows)), "mean-RSD-abs-dev")
	}
}

// BenchmarkFigure1 regenerates the motivation figure and reports each
// optimal scheme's normalized value on its own objective.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		f, err := r.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range []struct{ scheme, col, unit string }{
			{"square-root", "Hsp", "hsp-sqrt"},
			{"proportional", "MinFairness", "minf-prop"},
			{"priority-apc", "Wsp", "wsp-apc"},
			{"priority-api", "IPCsum", "ipcsum-api"},
		} {
			v, _ := f.Value(m.scheme, m.col)
			b.ReportMetric(v, m.unit)
		}
	}
}

// BenchmarkFigure2 regenerates the main evaluation sweep (14 mixes x 7
// configurations) and reports the paper's headline hetero-average gains.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		f, err := r.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		headline := f[len(f)-1] // percentages, rows keyed by objective
		for _, obj := range bwpart.Objectives() {
			overNoPart, _ := headline.Value(obj.String(), "vs no-part")
			overEqual, _ := headline.Value(obj.String(), "vs equal")
			b.ReportMetric(overNoPart, "pct-"+obj.String()+"-vs-nopart")
			b.ReportMetric(overEqual, "pct-"+obj.String()+"-vs-equal")
		}
	}
}

// BenchmarkFigure3 regenerates the QoS-guarantee experiment and reports the
// guaranteed application's achieved IPC per mix (target 0.6).
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		f, err := r.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range f.Rows {
			ipc, _ := f.Value(row.Key, "hmmer IPC QoS")
			b.ReportMetric(ipc, "hmmer-ipc-"+row.Key)
		}
	}
}

// BenchmarkFigure4 regenerates the scalability study (subset: two scale
// points over all hetero mixes) and reports the Hsp gain trend.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		f, err := r.Figure4Scaled(bwpart.HeteroMixes(), []int{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		lo, _ := f.Value(bwpart.ObjectiveHsp.String(), "3.2 GB/s")
		hi, _ := f.Value(bwpart.ObjectiveHsp.String(), "6.4 GB/s")
		b.ReportMetric(lo, "hsp-vs-equal-3.2GBs")
		b.ReportMetric(hi, "hsp-vs-equal-6.4GBs")
	}
}

// BenchmarkModelValidation reports the analytical model's mean relative
// prediction error against the simulator across schemes and objectives
// (extension experiment).
func BenchmarkModelValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		v, err := r.ValidateModel(bwpart.HeteroMixes()[:2])
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*v.MeanRelError(), "pct-model-error")
	}
}

// BenchmarkOnlineProfiling reports the online APC_alone estimator's mean
// relative error against the run-alone oracle (paper Sec. IV-C): the online
// cell's MixRun.EstimatorError.
func BenchmarkOnlineProfiling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		mix, err := bwpart.MixByName("hetero-5")
		if err != nil {
			b.Fatal(err)
		}
		cell := bwpart.GridCell{Mix: mix, Scheme: "online:square-root", Epoch: 150_000, Epochs: 4}
		runs, err := r.RunCells(context.Background(), []bwpart.GridCell{cell}, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*runs[0].EstimatorError(), "pct-estimator-error")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: cycles
// simulated per second for the 4-core motivation mix.
func BenchmarkSimulatorThroughput(b *testing.B) {
	mix, err := bwpart.MixByName("motivation")
	if err != nil {
		b.Fatal(err)
	}
	profs := make([]bwpart.Profile, len(mix.Benchmarks))
	for i, name := range mix.Benchmarks {
		profs[i], err = bwpart.BenchmarkByName(name)
		if err != nil {
			b.Fatal(err)
		}
	}
	cfg := bwpart.DefaultSimConfig()
	cfg.WarmupInstructions = 50_000
	sys, err := bwpart.NewSystem(cfg, profs)
	if err != nil {
		b.Fatal(err)
	}
	sys.Warmup()
	b.ResetTimer()
	const cyclesPerIter = 100_000
	for i := 0; i < b.N; i++ {
		sys.Run(cyclesPerIter)
	}
	b.ReportMetric(float64(cyclesPerIter)*float64(b.N)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkHeuristics compares the related-work schedulers (STFM, PARBS,
// ATLAS, TCM) against the optimal schemes on one heterogeneous mix and
// reports the fraction of the optimal Wsp gain each captures.
func BenchmarkHeuristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		mix, err := bwpart.MixByName("hetero-5")
		if err != nil {
			b.Fatal(err)
		}
		h, err := r.RunHeuristics([]bwpart.Mix{mix})
		if err != nil {
			b.Fatal(err)
		}
		// The fraction of the optimal scheme's Wsp gain over
		// No_partitioning that each heuristic captures: (h-1)/(opt-1).
		opt, _ := h.Value("priority-apc", "Wsp")
		for _, name := range []string{"stfm", "parbs", "atlas", "tcm"} {
			v, _ := h.Value(name, "Wsp")
			b.ReportMetric((v-1)/(opt-1), name+"-wsp-capture")
		}
	}
}

// BenchmarkSharedL2 runs the footnote-1 extension study and reports
// hmmer's API under small vs large L2 way quotas.
func BenchmarkSharedL2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		mix, err := bwpart.MixByName("homo-1")
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.SharedL2Study(mix, [][]int{{2, 2, 2, 2}, {1, 1, 1, 5}})
		if err != nil {
			b.Fatal(err)
		}
		api2, _ := res.Value("[2 2 2 2]/hmmer", "API (equal shares)")
		api5, _ := res.Value("[1 1 1 5]/hmmer", "API (equal shares)")
		b.ReportMetric(api2*1000, "hmmer-apki-2way")
		b.ReportMetric(api5*1000, "hmmer-apki-5way")
		equal, part := res.Column("API (equal shares)"), res.Column("API (partitioned)")
		var dev float64
		for i := range equal {
			if equal[i] > 0 {
				dev = math.Max(dev, math.Abs(part[i]-equal[i])/equal[i])
			}
		}
		b.ReportMetric(100*dev, "pct-api-deviation")
	}
}

// BenchmarkPhaseAdaptation runs the Sec. IV-C phase-tracking study and
// reports the online estimator's swing across epochs.
func BenchmarkPhaseAdaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := quickRunner(b)
		res, err := r.PhaseStudy(100_000, 200_000, 4)
		if err != nil {
			b.Fatal(err)
		}
		est := res.Column("est APC_alone (phased)")
		lo, hi := est[0], est[0]
		for _, v := range est {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		b.ReportMetric(hi/lo, "estimate-swing-x")
	}
}

package bwpart_test

import (
	"bytes"
	"fmt"

	"bwpart"
)

// The four optimal schemes the model derives, one per objective.
func ExampleOptimalFor() {
	for _, obj := range bwpart.Objectives() {
		scheme, err := bwpart.OptimalFor(obj)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("%s -> %s\n", obj, scheme.Name())
	}
	// Output:
	// harmonic-weighted-speedup -> square-root
	// min-fairness -> proportional
	// weighted-speedup -> priority-apc
	// ipc-sum -> priority-api
}

// Square_root shares follow the paper's Eq. 5 rule: beta_i ∝ sqrt(APC_alone,i).
func ExampleSquareRoot() {
	apcAlone := []float64{0.0004, 0.0016, 0.0036} // sqrt ratio 2:4:6
	shares, err := bwpart.SquareRoot().Shares(apcAlone)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, s := range shares {
		fmt.Printf("%.4f\n", s)
	}
	// Output:
	// 0.1667
	// 0.3333
	// 0.5000
}

// Priority_APC fills applications in ascending APC_alone order (the
// fractional-knapsack optimum for weighted speedup).
func ExamplePriorityAPC() {
	apcAlone := []float64{0.006, 0.002, 0.004}
	api := []float64{0.03, 0.004, 0.02}
	alloc, err := bwpart.PriorityAPC().Allocate(apcAlone, api, 0.007)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i, x := range alloc {
		fmt.Printf("app%d: %.3f\n", i, x)
	}
	// Output:
	// app0: 0.001
	// app1: 0.002
	// app2: 0.004
}

// The paper's Eq. 4 closed form for the maximum harmonic weighted speedup.
func ExampleMaxHsp() {
	apcAlone := []float64{0.004, 0.004}
	hsp, err := bwpart.MaxHsp(apcAlone, 0.006)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%.3f\n", hsp)
	// Output:
	// 0.750
}

// QoS allocation (Eq. 11): reserve exactly the bandwidth a guarantee
// needs, split the rest with a scheme.
func ExampleQoSAllocate() {
	apcAlone := []float64{0.006, 0.005}
	api := []float64{0.03, 0.005}
	alloc, err := bwpart.QoSAllocate(bwpart.PriorityAPI(), apcAlone, api, 0.009,
		[]bwpart.Guarantee{{App: 1, TargetIPC: 0.8}})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("reserved %.4f for the guarantee, %.4f left for best effort\n", alloc.BQoS, alloc.BBE)
	// Output:
	// reserved 0.0040 for the guarantee, 0.0050 left for best effort
}

// Eq. 1 of the model: IPC = APC / API.
func ExamplePredictIPC() {
	ipc, err := bwpart.PredictIPC([]float64{0.006, 0.003}, []float64{0.03, 0.005})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%.2f %.2f\n", ipc[0], ipc[1])
	// Output:
	// 0.20 0.60
}

// The Table IV workload catalog is available without any simulation.
func ExampleHeteroMixes() {
	mixes := bwpart.HeteroMixes()
	fmt.Println(len(mixes), mixes[6].Name, mixes[6].Benchmarks)
	// Output:
	// 7 hetero-7 [lbm milc gobmk zeusmp]
}

// Recording one cell's off-chip accesses: TraceCell simulates the cell with
// the tracer installed for its settle and measurement windows, even when the
// cell is already resident, and the trace reads back per application. The
// windows are shortened here; any ExperimentConfig works.
func ExampleRunner_TraceCell() {
	cfg := bwpart.QuickExperiments()
	cfg.Sim.WarmupInstructions = 20_000
	cfg.ProfileCycles, cfg.SettleCycles, cfg.MeasureCycles = 20_000, 5_000, 20_000
	runner, err := bwpart.NewRunner(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	mix, err := bwpart.MixByName("hetero-5")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var buf bytes.Buffer // an *os.File records to disk
	tw := bwpart.NewTraceWriter(&buf)
	run, err := runner.TraceCell(bwpart.GridCell{Mix: mix, Scheme: "equal"}, func(cycle int64, app int, addr uint64, write bool) {
		tw.Append(bwpart.TraceRecord{Cycle: cycle, App: app, Addr: addr, Write: write})
	})
	if err == nil {
		err = tw.Flush()
	}
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sum, err := bwpart.SummarizeTrace(&buf) // per-app accesses, writes and APC
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("%s under %s: %d applications traced\n", run.Mix.Name, run.Scheme, len(sum.Apps))
	fmt.Println("every record read back:", sum.Records == tw.Count())
	// Output:
	// hetero-5 under equal: 4 applications traced
	// every record read back: true
}

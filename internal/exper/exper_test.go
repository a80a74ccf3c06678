package exper

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// sharedRunner lazily builds one Quick runner per test binary so the alone
// profiles are computed once.
var sharedRunner *Runner

func quickRunner(t *testing.T) *Runner {
	t.Helper()
	if sharedRunner == nil {
		r, err := NewRunner(Quick())
		if err != nil {
			t.Fatal(err)
		}
		sharedRunner = r
	}
	return sharedRunner
}

func TestConfigValidate(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero measure window", func(c *Config) { c.MeasureCycles = 0 }},
		{"negative profile window", func(c *Config) { c.ProfileCycles = -1 }},
		{"invalid DRAM", func(c *Config) { c.Sim.DRAM.CPUGHz = 0 }},
		// The simulator geometry: each of these used to pass construction
		// and then fail every run.
		{"L2 ways not dividing the size", func(c *Config) { c.Sim.L2.Ways = 3 }},
		{"L1 without MSHRs", func(c *Config) { c.Sim.L1.MSHRs = 0 }},
		{"core without a ROB", func(c *Config) { c.Sim.Core.ROBSize = 0 }},
		{"core without dispatch width", func(c *Config) { c.Sim.Core.Width = 0 }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Quick()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted it")
			}
			if _, err := NewRunner(cfg); err == nil {
				t.Error("NewRunner accepted it")
			}
		})
	}
}

func TestAloneCaching(t *testing.T) {
	r := quickRunner(t)
	a1, err := r.Alone("gobmk")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := r.Alone("gobmk")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("cache returned different profiles")
	}
	if _, err := r.Alone("bogus"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunMixComputesAllObjectives(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	run, err := r.RunMix(mix, "square-root")
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Values) != 4 {
		t.Fatalf("values = %v", run.Values)
	}
	for obj, v := range run.Values {
		if v <= 0 {
			t.Errorf("%v = %v", obj, v)
		}
	}
	if run.Result.WindowCycles != r.Config().MeasureCycles {
		t.Fatalf("window = %d", run.Result.WindowCycles)
	}
}

func TestRunMixUnknownScheme(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	if _, err := r.RunMix(mix, "bogus"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	// A name alone cannot select a share-taking policy, and a cell's share
	// vector must fit its policy and mix.
	for _, name := range []string{"start-time-fair", "budget"} {
		if _, err := r.RunMix(mix, name); err == nil {
			t.Errorf("RunMix(%s) without shares accepted", name)
		}
		if err := CheckPolicy(name); err == nil {
			t.Errorf("CheckPolicy(%s) accepted", name)
		}
	}
	// Nor an online one: its epochs come with the cell.
	if err := CheckPolicy("online:square-root"); err == nil {
		t.Error("CheckPolicy(online:square-root) accepted")
	}
	for _, c := range []GridCell{
		{Mix: mix, Scheme: "equal", Shares: []float64{1, 1, 1, 1}},
		{Mix: mix, Scheme: "equal", Epoch: 1000},
		{Mix: mix, Scheme: "online:square-root"},
		{Mix: mix, Scheme: "online:square-root", Epoch: 1000, Epochs: 1},
		{Mix: mix, Scheme: "online:bogus", Epoch: 1000, Epochs: 2},
		{Mix: mix, Scheme: "start-time-fair", Shares: []float64{1, 1, 1}},
		{Mix: mix, Scheme: "start-time-fair", Shares: []float64{math.NaN(), 1, 1, 1}},
		{Mix: mix, Scheme: "budget", Shares: []float64{1, math.Inf(1), 1, 1}},
		{Mix: mix, Scheme: "budget", Shares: []float64{1, 0, 1, 1}},
	} {
		if _, err := r.lookup(r.own, c, true); err == nil {
			t.Errorf("cell %s %v %dx%d accepted", c.Scheme, c.Shares, c.Epochs, c.Epoch)
		}
	}
}

func TestFigure1ShapesMatchPaper(t *testing.T) {
	r := quickRunner(t)
	f, err := r.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	// Proportional must be the fairness winner among the five schemes.
	if got := f.BestInColumn("MinFairness"); got != "proportional" {
		t.Errorf("fairness winner = %s, want proportional", got)
	}
	// Priority schemes must crater fairness below the baseline.
	for _, s := range []string{"priority-apc", "priority-api"} {
		if v := value(t, f, s, "MinFairness"); v >= 1 {
			t.Errorf("%s fairness %.3f, expected below No_partitioning", s, v)
		}
	}
	// Square_root must beat Proportional on Hsp (Cauchy ordering).
	if value(t, f, "square-root", "Hsp") <= value(t, f, "proportional", "Hsp") {
		t.Error("square-root did not beat proportional on Hsp")
	}
	// Rendering includes every scheme row.
	text := f.String()
	for _, s := range Figure1Schemes() {
		if !strings.Contains(text, s) {
			t.Errorf("render missing %s", s)
		}
	}
}

// TestFigure1WinnerTieBreak: priority-api and priority-apc tie exactly on
// Figure 1's IPCsum, so the winner must come from legend order (priority-api
// is listed first), the same answer on every call.
func TestFigure1WinnerTieBreak(t *testing.T) {
	f, err := quickRunner(t).Figure1()
	if err != nil {
		t.Fatal(err)
	}
	if api, apc := value(t, f, "priority-api", "IPCsum"), value(t, f, "priority-apc", "IPCsum"); api != apc {
		t.Fatalf("the quick Figure 1 no longer ties on IPCsum (priority-api %v, priority-apc %v): pick another tie", api, apc)
	}
	for i := 0; i < 64; i++ {
		if got := f.BestInColumn("IPCsum"); got != "priority-api" {
			t.Fatalf("call %d: IPCsum winner = %s, want priority-api", i, got)
		}
	}
}

// value reads a number the test needs from tb, failing when it is absent.
func value(t *testing.T, tb *Table, key, col string) float64 {
	t.Helper()
	v, ok := tb.Value(key, col)
	if !ok {
		t.Fatalf("%q: no value at row %q, column %q", tb.Title, key, col)
	}
	return v
}

func TestTable3QuickSubset(t *testing.T) {
	// Full Table 3 via the runner is covered by cmd/benchmarks; here check
	// a subset classifies correctly at quick fidelity.
	r := quickRunner(t)
	for _, name := range []string{"lbm", "hmmer", "gobmk"} {
		ap, err := r.Alone(name)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := workload.ByName(name)
		got := workload.ClassifyAPKC(ap.APKC)
		if got != p.Class() {
			t.Errorf("%s: class %v, want %v (APKC %.2f)", name, got, p.Class(), ap.APKC)
		}
	}
}

func TestTable4(t *testing.T) {
	t4, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 14 {
		t.Fatalf("rows = %d", len(t4.Rows))
	}
	hetero := 0
	for _, row := range t4.Rows {
		if row.Cells[4] == "heterogeneous" {
			hetero++
		}
	}
	if hetero != 7 {
		t.Fatalf("hetero mixes = %d, want 7", hetero)
	}
	if !strings.Contains(t4.String(), "hetero-7") {
		t.Fatal("render missing rows")
	}
}

func TestFigure3QoSHoldsTarget(t *testing.T) {
	r := quickRunner(t)
	f, err := r.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 2 {
		t.Fatalf("mixes = %d", len(f.Rows))
	}
	for _, row := range f.Rows {
		// The guarantee must hold within enforcement tolerance.
		ipc := value(t, f, row.Key, "hmmer IPC QoS")
		if ipc < QoSTargetIPC*0.85 {
			t.Errorf("%s: guaranteed IPC %.3f below target %.2f", row.Key, ipc, QoSTargetIPC)
		}
		// And must not wildly overshoot either (it is a partition, not a
		// priority grant).
		if ipc > QoSTargetIPC*1.35 {
			t.Errorf("%s: guaranteed IPC %.3f far above target %.2f", row.Key, ipc, QoSTargetIPC)
		}
		for _, col := range []string{"BE Hsp (norm)", "BE Wsp (norm)", "BE IPCsum (norm)"} {
			if v := value(t, f, row.Key, col); v <= 0 {
				t.Errorf("%s: %s = %v", row.Key, col, v)
			}
		}
	}
	// mix-2's best-effort group must improve over No_partitioning (its
	// guarantee is nearly free: hmmer already ran at ~target). mix-1 pays
	// for lifting hmmer from starvation — see EXPERIMENTS.md.
	if v := value(t, f, "mix-2", "BE IPCsum (norm)"); v <= 1 {
		t.Errorf("mix-2 best-effort IPCsum not improved: %.3f", v)
	}
	if !strings.Contains(f.String(), "mix-1") {
		t.Fatal("render missing mix-1")
	}
}

func TestOnlineProfilingConverges(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	res, err := r.RunOnline(mix, "square-root", 120_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The online estimator is approximate; within 2x of oracle on average
	// is the sanity bar, paper-accuracy is recorded in EXPERIMENTS.md.
	if e := res.EstimatorError(); e > 1.0 {
		t.Errorf("estimator error %.2f too large", e)
	}
	for _, obj := range metrics.Objectives() {
		if res.Values[obj] <= 0 {
			t.Errorf("%v = %v", obj, res.Values[obj])
		}
	}
	if !strings.Contains(onlineTable(res).String(), "estimator error") {
		t.Fatal("render missing error line")
	}
}

func TestRunOnlineValidation(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	if _, err := r.RunOnline(mix, "square-root", 0, 4); err == nil {
		t.Error("zero epoch length accepted")
	}
	if _, err := r.RunOnline(mix, "square-root", 1000, 1); err == nil {
		t.Error("single epoch accepted")
	}
	if _, err := r.RunOnline(mix, "bogus", 1000, 2); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestValidateModelSmall(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	v, err := r.ValidateModel([]workload.Mix{mix})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Rows) != len(Figure2Schemes())*4 {
		t.Fatalf("rows = %d", len(v.Rows))
	}
	// The model should predict the right ballpark — the paper's whole
	// point. Accept generous tolerance at quick fidelity.
	if e := v.MeanRelError(); e > 0.5 {
		t.Errorf("mean model error %.2f", e)
	}
	if !strings.Contains(v.Table().String(), "mean relative error") {
		t.Fatal("render missing summary")
	}
}

func TestOptimalSchemeNameMapping(t *testing.T) {
	cases := map[metrics.Objective]string{
		metrics.ObjectiveHsp:         "square-root",
		metrics.ObjectiveMinFairness: "proportional",
		metrics.ObjectiveWsp:         "priority-apc",
		metrics.ObjectiveIPCSum:      "priority-api",
	}
	for obj, want := range cases {
		got, err := core.OptimalFor(obj)
		if err != nil || got.Name() != want {
			t.Errorf("core.OptimalFor(%v) = %v, %v", obj, got, err)
		}
	}
	if _, err := core.OptimalFor(metrics.Objective(77)); err == nil {
		t.Error("unknown objective accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("title", "a", "bb")
	tb.add(txt("x"), txt("y"))
	tb.add(txt("p"), f3(0.25))
	tb.note("note")
	s := tb.String()
	if !strings.Contains(s, "a") || !strings.Contains(s, "0.250") {
		t.Fatalf("bad table: %q", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 6 {
		t.Fatalf("lines = %d", len(lines))
	}
	if v, ok := tb.Value("p", "bb"); !ok || v != 0.25 {
		t.Errorf("Value(p, bb) = %v, %v; want 0.25, true", v, ok)
	}
	if _, ok := tb.Value("x", "bb"); ok {
		t.Error("a text cell has a value")
	}
}

// TestFigure2ParallelMatchesSerial is the differential of the grid path every
// figure resolves its cells through against a serial RunMix loop: Figure 1,
// Figure 2 and Figure4Scaled as the production code computes them on one
// runner must equal exactly the same figures assembled here, one RunMix at a
// time, on another — and so must every MixRun underneath them.
func TestFigure2ParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	newRunner := func(parallelism int) *Runner {
		cfg := memoTestConfig()
		cfg.Parallelism = parallelism
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	grid, serial := newRunner(4), newRunner(1)

	// rows resolves mixes x schemes on system one at a time on serial,
	// checking each cell against the one the figure left resident on grid.
	rows := func(system System, mixes []workload.Mix, schemes []string) [][]*MixRun {
		t.Helper()
		gon, err := grid.system(system)
		if err != nil {
			t.Fatal(err)
		}
		son, err := serial.system(system)
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]*MixRun, len(mixes))
		for mi, mix := range mixes {
			for _, scheme := range schemes {
				c := GridCell{Mix: mix, Scheme: scheme, System: system}
				want, err := serial.lookup(son, c, true)
				if err != nil {
					t.Fatal(err)
				}
				got, err := grid.lookup(gon, c, false)
				if err != nil {
					t.Fatalf("%s/%s: the figure did not resolve this cell: %v", mix.Name, scheme, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: grid cell diverges from serial RunMix", mix.Name, scheme)
				}
				out[mi] = append(out[mi], want)
			}
		}
		return out
	}
	// check requires the figure's value at (key, col) to equal want exactly.
	check := func(tb *Table, key, col string, want float64) {
		t.Helper()
		if got := value(t, tb, key, col); got != want {
			t.Errorf("%q %s/%s: grid %v, serial %v", tb.Title, key, col, got, want)
		}
	}
	objCols := map[metrics.Objective]string{metrics.ObjectiveHsp: "Hsp", metrics.ObjectiveMinFairness: "MinFairness",
		metrics.ObjectiveWsp: "Wsp", metrics.ObjectiveIPCSum: "IPCsum"}

	f1, err := grid.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	mot := workload.MotivationMix()
	row := rows(System{}, []workload.Mix{mot}, append([]string{NoPartitioning}, Figure1Schemes()...))[0]
	for i, scheme := range Figure1Schemes() {
		for obj, col := range objCols {
			check(f1, scheme, col, row[1+i].Values[obj]/row[0].Values[obj])
		}
	}

	f2, err := grid.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	mixes := workload.AllMixes()
	serialRows := rows(System{}, mixes, append([]string{NoPartitioning}, Figure2Schemes()...))
	for oi, obj := range metrics.Objectives() {
		hetSum, homSum := make([]float64, len(Figure2Schemes())), make([]float64, len(Figure2Schemes()))
		hetN, homN := 0, 0
		for mi, row := range serialRows {
			sum := homSum
			if mixes[mi].Heterogeneous() {
				sum, hetN = hetSum, hetN+1
			} else {
				homN++
			}
			for si, scheme := range Figure2Schemes() {
				v := row[1+si].Values[obj] / row[0].Values[obj]
				check(f2[oi], mixes[mi].Name, scheme, v)
				sum[si] += v
			}
		}
		for si, scheme := range Figure2Schemes() {
			check(f2[oi], "hetero-avg", scheme, hetSum[si]/float64(hetN))
			check(f2[oi], "homo-avg", scheme, homSum[si]/float64(homN))
		}
	}

	f4mixes, factors := workload.HeteroMixes()[:2], []int{1, 2}
	f4, err := grid.Figure4Scaled(f4mixes, factors)
	if err != nil {
		t.Fatal(err)
	}
	schemes := []string{"equal"}
	for _, obj := range metrics.Objectives() {
		sch, err := core.OptimalFor(obj)
		if err != nil {
			t.Fatal(err)
		}
		schemes = append(schemes, sch.Name())
	}
	for si, factor := range factors {
		scaled := System{Scale: float64(factor)}
		cfg, err := serial.SystemConfig(scaled)
		if err != nil {
			t.Fatal(err)
		}
		col := fmt.Sprintf("%.1f GB/s", cfg.Sim.DRAM.PeakBandwidthGBs())
		if f4.Header[1+si] != col {
			t.Errorf("Figure4Scaled column %d is %q, want %q", 1+si, f4.Header[1+si], col)
		}
		scaledMixes := make([]workload.Mix, len(f4mixes))
		for i, mix := range f4mixes {
			scaledMixes[i] = mix.Scale(factor)
		}
		sums := make([]float64, len(metrics.Objectives()))
		for _, row := range rows(scaled, scaledMixes, schemes) {
			for oi, obj := range metrics.Objectives() {
				sums[oi] += row[1+oi].Values[obj] / row[0].Values[obj]
			}
		}
		for oi, obj := range metrics.Objectives() {
			check(f4, obj.String(), col, sums[oi]/float64(len(scaledMixes)))
		}
	}
}

// TestFigure4ScaledParallelismInvariant: Figure 4's cells fan out, so its
// result must not depend on how many workers resolve them.
func TestFigure4ScaledParallelismInvariant(t *testing.T) {
	var results []*Table
	for _, parallelism := range []int{1, 4} {
		cfg := memoTestConfig()
		cfg.Parallelism = parallelism
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f4, err := r.Figure4Scaled(workload.HeteroMixes()[:2], []int{2})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, f4)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("Figure4Scaled depends on Parallelism:\n1: %s\n4: %s", results[0], results[1])
	}
}

func TestRepeatability(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	res, err := r.Repeatability(mix, "square-root", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(res.Title, "over 3 seeds") || len(res.Rows) != 4 {
		t.Fatalf("shape: %s", res)
	}
	for _, row := range res.Rows {
		if mean := value(t, res, row.Key, "mean"); mean <= 0 {
			t.Errorf("%s: mean %v", row.Key, mean)
		}
	}
	// Generators are the only stochastic element: run-to-run noise must be
	// small relative to the effects the paper measures.
	for _, rsd := range res.Column("RSD") {
		if rsd > 10 {
			t.Errorf("run-to-run RSD %v%% too large", rsd)
		}
	}
	if !strings.Contains(res.String(), "seeds") {
		t.Fatal("render incomplete")
	}
}

func TestRepeatabilityValidation(t *testing.T) {
	r := quickRunner(t)
	mix, _ := workload.MixByName("hetero-5")
	if _, err := r.Repeatability(mix, "square-root", 1); err == nil {
		t.Error("single seed accepted")
	}
}

package sim

import (
	"math"
	"reflect"
	"testing"

	"bwpart/internal/cache"
	"bwpart/internal/core"
	"bwpart/internal/cpu"
	"bwpart/internal/dram"
	"bwpart/internal/memctrl"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// fastCfg shrinks warmup for quicker tests.
func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.WarmupInstructions = 50_000
	return cfg
}

func mustProfiles(t *testing.T, names ...string) []workload.Profile {
	t.Helper()
	out := make([]workload.Profile, len(names))
	for i, n := range names {
		p, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = p
	}
	return out
}

// profileAll profiles every benchmark in profs alone under cfg, in order.
func profileAll(t *testing.T, cfg Config, profs []workload.Profile, cycles int64) []AloneProfile {
	t.Helper()
	out := make([]AloneProfile, len(profs))
	for i, p := range profs {
		ap, err := ProfileAlone(cfg, p, cycles)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = ap
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(fastCfg(), nil); err == nil {
		t.Error("no applications accepted")
	}
	cfg := fastCfg()
	cfg.DRAM.CPUGHz = 0
	if _, err := New(cfg, mustProfiles(t, "milc")); err == nil {
		t.Error("invalid DRAM config accepted")
	}
}

func TestSingleAppRunsAndMeasures(t *testing.T) {
	sys, err := New(fastCfg(), mustProfiles(t, "gromacs"))
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()
	sys.Run(50_000)
	sys.ResetStats()
	sys.Run(200_000)
	res := sys.Results()
	if res.WindowCycles != 200_000 {
		t.Fatalf("window = %d", res.WindowCycles)
	}
	a := res.Apps[0]
	if a.IPC <= 0 || a.APC <= 0 || a.API <= 0 {
		t.Fatalf("empty measurement: %+v", a)
	}
	if a.InterferenceCycles != 0 {
		t.Fatalf("alone app saw interference: %d", a.InterferenceCycles)
	}
	if res.BusUtilization <= 0 || res.BusUtilization > 1 {
		t.Fatalf("bus utilization %v out of (0,1]", res.BusUtilization)
	}
}

func TestProfileAloneMatchesCalibration(t *testing.T) {
	// Every benchmark must land near its Table III reference when run
	// alone — this is the repo's standing calibration guarantee.
	if testing.Short() {
		t.Skip("calibration sweep is long")
	}
	for _, p := range workload.All() {
		// Full warmup: low-APKI benchmarks need their working set resident
		// or cold misses distort the measurement.
		ap, err := ProfileAlone(DefaultConfig(), p, 400_000)
		if err != nil {
			t.Fatal(err)
		}
		if relErr(ap.APKC, p.TableAPKC) > 0.15 {
			t.Errorf("%s: APKC %v vs reference %v", p.Name, ap.APKC, p.TableAPKC)
		}
		if relErr(ap.APKI, p.TableAPKI) > 0.20 {
			t.Errorf("%s: APKI %v vs reference %v", p.Name, ap.APKI, p.TableAPKI)
		}
		if ref := p.TableAPKC / p.TableAPKI; relErr(ap.IPCAlone, ref) > 0.15 {
			t.Errorf("%s: IPC %v vs reference %v", p.Name, ap.IPCAlone, ref)
		}
	}
}

func relErr(got, want float64) float64 {
	return math.Abs(got-want) / want
}

func TestProfileAloneValidation(t *testing.T) {
	p, _ := workload.ByName("milc")
	if _, err := ProfileAlone(fastCfg(), p, 0); err == nil {
		t.Error("zero window accepted")
	}
	// A shared L2's way quota is the mix's: profiled alone, the app gets
	// every way, as with a nil quota.
	want, err := ProfileAlone(sharedCfg(nil), p, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ProfileAlone(sharedCfg([]int{2, 2, 2, 2}), p, 20_000)
	if err != nil {
		t.Fatalf("quota {2,2,2,2}: %v", err)
	}
	if got != want {
		t.Errorf("quota {2,2,2,2} profiled %+v, nil quota %+v", got, want)
	}
}

func TestTotalAPCBoundedByPeak(t *testing.T) {
	profs := mustProfiles(t, "lbm", "milc", "soplex", "libquantum")
	sys, err := New(fastCfg(), profs)
	if err != nil {
		t.Fatal(err)
	}
	sys.Warmup()
	sys.Run(50_000)
	sys.ResetStats()
	sys.Run(300_000)
	res := sys.Results()
	peak := fastCfg().DRAM.PeakAPC()
	if res.TotalAPC > peak*1.01 {
		t.Fatalf("total APC %v exceeds peak %v", res.TotalAPC, peak)
	}
	// Four bandwidth-hungry apps must saturate the bus.
	if res.BusUtilization < 0.85 {
		t.Fatalf("bus utilization %v, want near saturation", res.BusUtilization)
	}
}

func TestSharedSlowerThanAlone(t *testing.T) {
	profs := mustProfiles(t, "milc", "soplex", "libquantum", "omnetpp")
	alone := profileAll(t, fastCfg(), profs, 300_000)
	sys, _ := New(fastCfg(), profs)
	sys.Warmup()
	sys.Run(50_000)
	sys.ResetStats()
	sys.Run(300_000)
	res := sys.Results()
	for i, a := range res.Apps {
		if a.IPC >= alone[i].IPCAlone {
			t.Errorf("%s: shared IPC %v >= alone %v (four memory hogs on one bus)",
				a.Name, a.IPC, alone[i].IPCAlone)
		}
	}
}

func TestAPIInvariantAcrossSchemes(t *testing.T) {
	// The model's premise: API is (approximately) unaffected by
	// partitioning. Compare each app's API under FCFS vs strict priority.
	profs := mustProfiles(t, "milc", "hmmer", "gromacs", "gobmk")
	apis := make([][]float64, 2)
	for k, scheme := range []string{"fcfs", "priority"} {
		sys, _ := New(fastCfg(), profs)
		sys.Warmup()
		if scheme == "priority" {
			alone := []float64{0.007, 0.005, 0.003, 0.002}
			api := []float64{0.045, 0.005, 0.005, 0.004}
			if err := sys.ApplyScheme(core.PriorityAPC(), alone, api); err != nil {
				t.Fatal(err)
			}
		}
		sys.Run(50_000)
		sys.ResetStats()
		sys.Run(400_000)
		apis[k] = sys.Results().APIs()
	}
	for i := range profs {
		if apis[0][i] <= 0 || apis[1][i] <= 0 {
			// A fully starved app retires almost nothing; skip it.
			continue
		}
		if relErr(apis[1][i], apis[0][i]) > 0.25 {
			t.Errorf("%s: API varies with scheme: %v vs %v", profs[i].Name, apis[0][i], apis[1][i])
		}
	}
}

func TestApplySchemeValidation(t *testing.T) {
	sys, _ := New(fastCfg(), mustProfiles(t, "milc", "gobmk"))
	if err := sys.ApplyScheme(core.Equal(), []float64{1}, []float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := sys.ApplyShares([]float64{1}); err == nil {
		t.Error("short share vector accepted")
	}
	if err := sys.ApplyShares([]float64{0.5, 0.5}); err != nil {
		t.Error(err)
	}
	if err := sys.ApplyNoPartitioning(); err != nil {
		t.Error(err)
	}
}

func TestStartTimeFairSharesShapeBandwidth(t *testing.T) {
	// Two identical memory-bound apps with a 3:1 share split must see
	// roughly 3:1 off-chip service.
	profs := mustProfiles(t, "milc", "milc")
	sys, _ := New(fastCfg(), profs)
	sys.Warmup()
	if err := sys.ApplyShares([]float64{0.75, 0.25}); err != nil {
		t.Fatal(err)
	}
	sys.Run(100_000)
	sys.ResetStats()
	sys.Run(500_000)
	res := sys.Results()
	ratio := res.Apps[0].APC / res.Apps[1].APC
	// The favored app's grant exceeds its standalone demand, so it caps at
	// demand and its queue periodically drains; work conservation hands the
	// slack to the other app. The ratio therefore lands well above 1 (the
	// shares bite) but below the nominal 3.
	if ratio < 1.5 || ratio > 3.3 {
		t.Fatalf("service ratio %v, want within [1.5, 3.3] for 3:1 shares", ratio)
	}
}

func TestPrioritySchemeMatchesModelAllocation(t *testing.T) {
	// Two heavy apps under strict priority: the sim's bandwidth split must
	// track the model's greedy (fractional knapsack) allocation — the
	// favored app fills to its alone-mode demand, the other takes leftover.
	profs := mustProfiles(t, "milc", "soplex")
	alone := profileAll(t, fastCfg(), profs, 300_000)
	apc := []float64{alone[0].APCAlone, alone[1].APCAlone}
	api := []float64{alone[0].API, alone[1].API}
	sys, _ := New(fastCfg(), profs)
	sys.Warmup()
	if err := sys.ApplyScheme(core.PriorityAPC(), apc, api); err != nil {
		t.Fatal(err)
	}
	sys.Run(50_000)
	sys.ResetStats()
	sys.Run(400_000)
	res := sys.Results()
	want, err := core.PriorityAPC().Allocate(apc, api, res.TotalAPC)
	if err != nil {
		t.Fatal(err)
	}
	for i := range profs {
		if relErr(res.Apps[i].APC, want[i]) > 0.15 {
			t.Errorf("%s: sim APC %v vs model %v", profs[i].Name, res.Apps[i].APC, want[i])
		}
	}
}

func TestMetricsPipelineEndToEnd(t *testing.T) {
	// Full pipeline: profile alone, run shared under square-root, compute
	// all four objectives; sanity-check ranges.
	mix := workload.MotivationMix()
	profs, err := mix.Profiles()
	if err != nil {
		t.Fatal(err)
	}
	alone := profileAll(t, fastCfg(), profs, 200_000)
	apc := make([]float64, len(alone))
	api := make([]float64, len(alone))
	ipcAlone := make([]float64, len(alone))
	for i, a := range alone {
		apc[i], api[i], ipcAlone[i] = a.APCAlone, a.API, a.IPCAlone
	}
	sys, _ := New(fastCfg(), profs)
	sys.Warmup()
	if err := sys.ApplyScheme(core.SquareRoot(), apc, api); err != nil {
		t.Fatal(err)
	}
	sys.Run(50_000)
	sys.ResetStats()
	sys.Run(400_000)
	shared := sys.Results().IPCs()
	for _, obj := range metrics.Objectives() {
		v, err := obj.Eval(shared, ipcAlone)
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		if v <= 0 || math.IsNaN(v) {
			t.Fatalf("%v = %v", obj, v)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		sys, _ := New(fastCfg(), mustProfiles(t, "milc", "gobmk"))
		sys.Warmup()
		sys.Run(50_000)
		sys.ResetStats()
		sys.Run(100_000)
		return sys.Results().IPCs()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	run := func(seed int64) []float64 {
		cfg := fastCfg()
		cfg.Seed = seed
		sys, _ := New(cfg, mustProfiles(t, "milc", "gobmk"))
		sys.Warmup()
		sys.Run(50_000)
		sys.ResetStats()
		sys.Run(100_000)
		return sys.Results().IPCs()
	}
	a, b := run(1), run(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical measurements")
	}
}

func TestChannelScalingDoublesThroughput(t *testing.T) {
	// Two DRAM channels at the same bus frequency should nearly double the
	// deliverable bandwidth for a channel-parallel workload.
	run := func(channels int) float64 {
		cfg := fastCfg()
		cfg.DRAM.Channels = channels
		profs := mustProfiles(t, "lbm", "lbm", "lbm", "lbm")
		sys, err := New(cfg, profs)
		if err != nil {
			t.Fatal(err)
		}
		sys.Warmup()
		sys.Run(50_000)
		sys.ResetStats()
		sys.Run(300_000)
		return sys.Results().TotalAPC
	}
	one, two := run(1), run(2)
	if two < one*1.6 {
		t.Fatalf("2-channel APC %v not ~2x 1-channel %v", two, one)
	}
	dram2 := fastCfg().DRAM
	dram2.Channels *= 2
	peak2 := dram2.PeakAPC()
	if two > peak2*1.01 {
		t.Fatalf("2-channel APC %v exceeds peak %v", two, peak2)
	}
}

func TestL2PrefetchLatencyForBandwidthTrade(t *testing.T) {
	// Both sides of the classic prefetching trade:
	// (a) a serialized pure-sequential streamer (MLP 1, high ILP ceiling)
	//     gains IPC because next-line prefetches turn its misses into hits;
	// (b) off-chip traffic rises on a benchmark with a random component
	//     (useless prefetches amplify demand).
	seqProfile := workload.Profile{
		Name: "seqwalk", TableAPKC: 1, TableAPKI: 1,
		MemRefsPerKI: 120, ColdPerKI: 15, WriteFrac: 0, SeqFrac: 1.0,
		BaseIPC: 3.0, MLP: 1,
	}
	run := func(depth int) float64 {
		cfg := fastCfg()
		cfg.L2PrefetchDepth = depth
		sys, err := New(cfg, []workload.Profile{seqProfile})
		if err != nil {
			t.Fatal(err)
		}
		sys.Warmup()
		sys.Run(50_000)
		sys.ResetStats()
		sys.Run(300_000)
		return sys.Results().Apps[0].IPC
	}
	baseIPC, pfIPC := run(0), run(4)
	if pfIPC < baseIPC*1.5 {
		t.Fatalf("prefetching should unlock a serialized streamer: %v -> %v", baseIPC, pfIPC)
	}

	runBench := func(depth int) float64 {
		cfg := fastCfg()
		cfg.L2PrefetchDepth = depth
		sys, err := New(cfg, mustProfiles(t, "leslie3d"))
		if err != nil {
			t.Fatal(err)
		}
		sys.Warmup()
		sys.Run(50_000)
		sys.ResetStats()
		sys.Run(300_000)
		return sys.Results().Apps[0].APKI
	}
	baseAPKI, pfAPKI := runBench(0), runBench(4)
	if pfAPKI <= baseAPKI*1.1 {
		t.Fatalf("prefetching should amplify off-chip traffic: APKI %v -> %v", baseAPKI, pfAPKI)
	}
}

// TestCountersSubtractEveryField: a window is a difference of two readings
// only if every counter is an int64 that its type's Sub subtracts. A counter
// added to one of the four Stats types without its Sub term fails here.
func TestCountersSubtractEveryField(t *testing.T) {
	checkSub(t, cpu.Stats.Sub)
	checkSub(t, cache.Stats.Sub)
	checkSub(t, memctrl.AppStats.Sub)
	checkSub(t, dram.Stats.Sub)
}

func checkSub[T any](t *testing.T, sub func(T, T) T) {
	t.Helper()
	var a, b T
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if va.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("%T.%s is not an int64 counter", a, va.Type().Field(i).Name)
		}
		va.Field(i).SetInt(int64(100 * (i + 1)))
		vb.Field(i).SetInt(int64(i + 1))
	}
	d := sub(a, b)
	vd := reflect.ValueOf(d)
	for i := 0; i < vd.NumField(); i++ {
		if got, want := vd.Field(i).Int(), int64(99*(i+1)); got != want {
			t.Errorf("%T.Sub: field %s = %d, want %d", a, vd.Type().Field(i).Name, got, want)
		}
	}
}

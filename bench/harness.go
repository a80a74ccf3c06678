package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bwpart/internal/exper"
	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// size fixes how much work one run does. Only "full" is a measurement;
// "tiny" exists so the smoke test can run every workload in seconds.
type size struct {
	name    string
	mixes   []workload.Mix // sweep_cold's grid: all of Table IV
	schemes []string
	// serveMixes is the serve workloads' grid. It holds no more mixes than
	// the engine's warm-base LRU (8): past that, every memory-tier hit
	// re-warms an evicted base (see README, first baseline findings) and the
	// workload would time sim warmup, not the serve hit path.
	serveMixes []workload.Mix
	// scaleMixes x factors is scale_cold's Figure 4 slice; effMixes is the
	// sub-grid exper.grid_parallel_eff is measured on.
	scaleMixes []workload.Mix
	factors    []int
	effMixes   []workload.Mix
	rounds     map[string]int // per workload, at -seconds nominalSeconds
	passes     map[string]int // serve workloads: passes over the grid per round
	setupReps  int            // batch workloads: set-up repetitions
	probeDiv   int            // divides every micro-probe's iteration count
	replays    int            // replays per regime of the step-by-step cold cell
}

func sizeByName(name string) (size, error) {
	all := workload.AllMixes()
	hetero := workload.HeteroMixes()
	schemes := append([]string{exper.NoPartitioning}, exper.Figure2Schemes()...)
	switch name {
	case "full":
		return size{
			name:       "full",
			mixes:      all,
			schemes:    schemes,
			serveMixes: []workload.Mix{all[0], all[2], all[4], all[6], hetero[0], hetero[2], hetero[4], hetero[6]},
			scaleMixes: hetero[:3],
			factors:    []int{2, 4},
			effMixes:   []workload.Mix{all[0], all[5], hetero[0], hetero[4]},
			rounds:     map[string]int{wlSweepCold: 3, wlScaleCold: 3, wlServeHitMem: 6, wlServeHitDisk: 7},
			// Sized so a round takes at least 3 s: ~14 k req/s from memory,
			// ~8 k req/s from disk.
			passes:    map[string]int{wlServeHitMem: 800, wlServeHitDisk: 612},
			setupReps: 5,
			probeDiv:  1,
			replays:   3,
		}, nil
	case "tiny":
		return size{
			name:       "tiny",
			mixes:      []workload.Mix{all[0], hetero[0]},
			schemes:    []string{exper.NoPartitioning, "equal"},
			serveMixes: []workload.Mix{all[0], hetero[0]},
			scaleMixes: hetero[:1],
			factors:    []int{2},
			effMixes:   []workload.Mix{all[0], hetero[0]},
			rounds:     map[string]int{wlSweepCold: 1, wlScaleCold: 1, wlServeHitMem: 1, wlServeHitDisk: 1},
			passes:     map[string]int{wlServeHitMem: 2, wlServeHitDisk: 2},
			setupReps:  1,
			probeDiv:   100,
			replays:    1,
		}, nil
	}
	return size{}, fmt.Errorf("unknown size %q (want full or tiny)", name)
}

// engineParallelism is Config.Parallelism and serve.Options.Workers in every
// workload: the sweepd default on the two-core reference host.
const engineParallelism = 2

// experConfig is the configuration every workload simulates under: Quick
// fidelity (the sweepd default) with a fresh collector.
func experConfig() exper.Config {
	cfg := exper.Quick()
	cfg.Parallelism = engineParallelism
	cfg.Obs = obs.NewCollector()
	return cfg
}

// roundStats is what one round of a workload measured.
type roundStats struct {
	cells  int           // (mix, scheme) results delivered
	wall   time.Duration // measured wall time
	latNS  []int64       // per-request latencies (serve workloads only)
	counts map[string]float64
	// simSeconds is the wall time simulation could have run in, summed over
	// the engine workers it could have used (for exper.stage_coverage_frac).
	simSeconds float64
	stages     obs.Snapshot
}

// bench is one workload: set-up (everything before the first timed
// operation), identical rounds, teardown.
type bench interface {
	setup(h *harness) error
	round(h *harness) (roundStats, error)
	close()
	// resident reports whether the workload measures a long-lived server:
	// set-up is then expensive and runs once, and one untimed round warms the
	// server before the measured ones. Otherwise set-up is cheap, and repeated
	// so that setup_s is a median and not one sample.
	resident() bool
}

// harness carries one run's state.
type harness struct {
	sz       size
	workload string
	seed     int64
	rounds   int
	traced   bool
	tr       *tracer // non-nil only while a traced round records
	spans    []span  // everything a traced run recorded
	gold     *golden
	root     string

	attempted int
	failed    int
	perRound  map[string][]float64
	notes     []string
	tmpDirs   []string
}

func newHarness(sz size, workload string, seed int64, seconds int, traced bool, gold *golden, root string) *harness {
	rounds := sz.rounds[workload]
	if sz.name == "full" {
		rounds = max(3, (rounds*seconds+nominalSeconds/2)/nominalSeconds)
	}
	return &harness{
		sz: sz, workload: workload, seed: seed, rounds: rounds, traced: traced,
		gold: gold, root: root, perRound: make(map[string][]float64),
	}
}

// fail records one failed operation and why.
func (h *harness) fail(err error) {
	h.failed++
	if len(h.notes) < 20 {
		h.notes = append(h.notes, err.Error())
	}
}

// checkCell counts one delivered cell and verifies its digest.
func (h *harness) checkCell(factor int, run *exper.MixRun) {
	h.attempted++
	if err := h.gold.checkCell(factor, run); err != nil {
		h.fail(err)
	}
}

// tempDir creates a scratch directory inside the checkout; cleanup removes
// every one of them on the way out.
func (h *harness) tempDir() (string, error) {
	base := filepath.Join(h.root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(base, "ckpt-")
	if err != nil {
		return "", err
	}
	h.tmpDirs = append(h.tmpDirs, dir)
	return dir, nil
}

func (h *harness) cleanup() {
	for _, dir := range h.tmpDirs {
		os.RemoveAll(dir)
	}
	h.tmpDirs = nil
}

// permuted returns the mixes in the order the seed selects.
func permuted(mixes []workload.Mix, seed int64) []workload.Mix {
	out := append([]workload.Mix(nil), mixes...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

func (h *harness) newBench() bench {
	switch h.workload {
	case wlSweepCold:
		return &sweepCold{mixes: permuted(h.sz.mixes, h.seed)}
	case wlScaleCold:
		return &scaleCold{mixes: permuted(h.sz.scaleMixes, h.seed)}
	case wlServeHitMem:
		return &serveHit{}
	default:
		return &serveHit{disk: true}
	}
}

// run executes the workload and assembles the record.
func (h *harness) run() (*record, error) {
	defer h.cleanup()
	metrics := make(map[string]float64)
	var spans map[string]spanStat
	var err error
	if h.traced {
		spans, err = h.runTraced(metrics)
	} else {
		err = h.runUntraced(metrics)
	}
	if err != nil {
		return nil, err
	}
	if h.attempted == 0 {
		return nil, fmt.Errorf("%s delivered no cells", h.workload)
	}

	defs := endToEnd
	if h.traced {
		defs = perLayer
	}
	rec := &record{Workload: h.workload, Trace: h.traced}
	rec.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("internal: metric %s was not measured", d.Name)
		}
		rec.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	rec.Attempted, rec.Failed = h.attempted, h.failed
	rec.Correct = h.failed == 0
	rec.Meta = meta{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: h.seed, Size: h.sz.name, Rounds: h.rounds,
		PerRound: h.perRound, Quartiles: make(map[string][3]float64, len(h.perRound)),
		Spans: spans, Notes: h.notes,
	}
	for name, vs := range h.perRound {
		rec.Meta.Quartiles[name] = quartiles(vs)
	}
	return rec, nil
}

// observe appends one per-round value of a metric.
func (h *harness) observe(name string, v float64) {
	h.perRound[name] = append(h.perRound[name], v)
}

// prepare sets the workload up (see bench.resident for how often) and runs the
// discarded warm-up round. The caller closes the returned bench.
func (h *harness) prepare() (bench, error) {
	var b bench
	for rep := 0; ; rep++ {
		b = h.newBench()
		t0 := time.Now()
		if err := b.setup(h); err != nil {
			b.close()
			return nil, fmt.Errorf("%s set-up: %w", h.workload, err)
		}
		h.observe("setup_s", time.Since(t0).Seconds())
		if b.resident() || rep+1 >= h.sz.setupReps {
			break
		}
		b.close()
	}
	if b.resident() {
		if _, err := h.measuredRound(b); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// measuredRound collects garbage outside the timer, then runs one round.
func (h *harness) measuredRound(b bench) (roundStats, error) {
	runtime.GC()
	rs, err := b.round(h)
	if err != nil {
		return rs, fmt.Errorf("%s round: %w", h.workload, err)
	}
	if rs.cells == 0 || rs.wall <= 0 {
		return rs, fmt.Errorf("%s round delivered %d cells in %v", h.workload, rs.cells, rs.wall)
	}
	return rs, nil
}

// sameCounts fails the run when two rounds' event counts differ: the engine
// must do exactly the same work every round.
func (h *harness) sameCounts(a, b map[string]float64) {
	for name, va := range a {
		if vb := b[name]; va != vb {
			h.fail(fmt.Errorf("%s differs between rounds: %v then %v", name, va, vb))
		}
	}
}

func (h *harness) runUntraced(metrics map[string]float64) error {
	b, err := h.prepare()
	if err != nil {
		return err
	}
	defer b.close()
	var first roundStats
	for i := 0; i < h.rounds; i++ {
		rs, err := h.measuredRound(b)
		if err != nil {
			return err
		}
		h.observe("cells_per_s", float64(rs.cells)/rs.wall.Seconds())
		if rs.latNS != nil { // kept in meta to diagnose a noisy throughput
			h.observe("serve.latency_p50_ms", requestLatencyMS(rs, 0.50))
		}
		if i == 0 {
			first = rs
		} else {
			h.sameCounts(first.counts, rs.counts)
		}
	}
	metrics["setup_s"] = median(h.perRound["setup_s"])
	metrics["cells_per_s"] = median(h.perRound["cells_per_s"])
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	metrics["peak_rss_mb"] = rss
	return nil
}

// requestLatencyMS is the p-th percentile of a serve round's per-request
// latencies, in milliseconds.
func requestLatencyMS(rs roundStats, p float64) float64 {
	return percentileNS(sortedCopy(rs.latNS), p) / 1e6
}

// runTraced runs one traced and one untraced round of the workload, then the
// layer probes, and fills in every per-layer metric.
func (h *harness) runTraced(metrics map[string]float64) (map[string]spanStat, error) {
	b, err := h.prepare()
	if err != nil {
		return nil, err
	}
	tr := newTracer(h.workload)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h.tr = tr
	traced, err := b.round(h)
	h.tr = nil
	runtime.ReadMemStats(&after)
	if err != nil {
		b.close()
		return nil, fmt.Errorf("%s traced round: %w", h.workload, err)
	}
	untraced, err := h.measuredRound(b)
	b.close()
	if err != nil {
		return nil, err
	}
	h.sameCounts(traced.counts, untraced.counts)

	// The probes report first; what the workload itself measured overrides
	// (the request latencies are the workload's own on the serve workloads).
	if err := h.probes(tr, metrics); err != nil {
		return nil, err
	}
	cells := float64(traced.cells)
	metrics["go.allocs_per_cell"] = float64(after.Mallocs-before.Mallocs) / cells
	metrics["go.bytes_per_cell"] = float64(after.TotalAlloc-before.TotalAlloc) / cells
	metrics["go.num_gc"] = float64(after.NumGC - before.NumGC)
	metrics["go.gc_pause_total_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	tracedRate := cells / traced.wall.Seconds()
	untracedRate := float64(untraced.cells) / untraced.wall.Seconds()
	metrics["trace.overhead_frac"] = tracedRate/untracedRate - 1
	for name, v := range traced.counts {
		metrics[name] = v
	}
	var stageSum float64
	stageMetric := map[string]string{
		obs.StageProfile: "exper.stage_profile_s", obs.StageWarmup: "exper.stage_warmup_s",
		obs.StageSettle: "exper.stage_settle_s", obs.StageMeasure: "exper.stage_measure_s",
	}
	for _, name := range stageMetric {
		metrics[name] = 0
	}
	for _, st := range traced.stages.Stages {
		if name, ok := stageMetric[st.Name]; ok {
			metrics[name] = st.Seconds
			stageSum += st.Seconds
		}
	}
	metrics["exper.stage_coverage_frac"] = stageSum / traced.simSeconds
	if untraced.latNS != nil && percentileSupported(len(untraced.latNS), 0.95) {
		metrics["serve.latency_p50_ms"] = requestLatencyMS(untraced, 0.50)
		metrics["serve.latency_p95_ms"] = requestLatencyMS(untraced, 0.95)
	}
	h.spans = tr.spans
	return summarize(tr.spans), nil
}

// cacheCounts extracts the engine's cache account from a collector snapshot
// as the exper.* count metrics.
func cacheCounts(s obs.Snapshot) map[string]float64 {
	return map[string]float64{
		"exper.cache_hits":         float64(s.Cache.Hits),
		"exper.cache_misses":       float64(s.Cache.Misses),
		"exper.ckpt_hits":          float64(s.Cache.CheckpointHits),
		"exper.warm_forks":         float64(s.Cache.WarmForks),
		"exper.prepared_evictions": float64(s.Cache.PreparedEvictions),
		"exper.cache_bytes":        float64(s.Cache.Bytes),
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

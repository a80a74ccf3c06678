package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bwpart/internal/cache"
	"bwpart/internal/core"
	"bwpart/internal/cpu"
	"bwpart/internal/dram"
	"bwpart/internal/event"
	"bwpart/internal/exper"
	"bwpart/internal/mem"
	"bwpart/internal/memctrl"
	"bwpart/internal/metrics"
	"bwpart/internal/serve"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// The probes are the same in every workload's traced run: each measures one
// layer through its public constructor and methods, outside in (sim, then the
// components under it, then core, exper, serve, obs). They are ungated.

func (h *harness) probes(tr *tracer, m map[string]float64) error {
	t0 := time.Now()
	r, err := profileAll(experConfig())
	if err != nil {
		return err
	}
	m["exper.alone_ms_per_bench"] = time.Since(t0).Seconds() * 1e3 / float64(len(workload.Names()))

	for _, probe := range []func(*tracer, *exper.Runner, map[string]float64) error{
		h.probeSim, h.probeComponents, h.probeExper, h.probeServeMem, h.probeServeDisk,
	} {
		if err := probe(tr, r, m); err != nil {
			return err
		}
	}
	m["serve.http_overhead_us"] = 1e3*m["serve.latency_p50_ms"] - m["serve.handler_hit_us"]

	// What the probes measured in simulated time (or as a size) must repeat
	// exactly; the workload's own counts are compared between its rounds.
	for _, d := range perLayer {
		if v, ok := m[d.Name]; ok && d.Exact {
			if err := h.gold.checkValue(h.sz.name, d.Name, v); err != nil {
				h.fail(err)
			}
		}
	}
	return nil
}

// iters scales a micro-probe's iteration count to the harness size.
func (h *harness) iters(n int) int { return max(1, n/h.sz.probeDiv) }

// ---- sim: a cold cell replayed step by step ----

// cellSteps are the child spans of a replayed cell, in order.
var cellSteps = []string{
	"sim.new", "sim.warmup", "sim.snapshot", "sim.fork", "core.apply_scheme",
	"sim.run.settle", "sim.run.measure", "sim.results", "metrics.eval",
}

// replayCell resolves one cold (mix, scheme) cell the way the experiment
// engine does — build, warm, snapshot, fork, apply the scheme, settle,
// measure, evaluate — but through sim's public functions, one span per step
// under a "cell" span. r supplies the alone profiles (already cached, as
// they are for every cell of a sweep but its first).
func replayCell(tr *tracer, r *exper.Runner, mix workload.Mix, scheme string) (*exper.MixRun, error) {
	cfg := r.Config()
	profs, err := mix.Profiles()
	if err != nil {
		return nil, err
	}
	n := len(mix.Benchmarks)
	apcAlone, api, ipcAlone := make([]float64, n), make([]float64, n), make([]float64, n)
	for i, name := range mix.Benchmarks {
		ap, err := r.Alone(name)
		if err != nil {
			return nil, err
		}
		apcAlone[i], api[i], ipcAlone[i] = ap.APCAlone, ap.API, ap.IPCAlone
	}
	sch, err := core.ByName(scheme)
	if err != nil {
		return nil, err
	}

	cell := tr.begin("cell")
	defer tr.end(cell)
	step := func(name string, fn func()) {
		id := tr.begin(name)
		fn()
		tr.end(id)
	}
	var base, sys *sim.System
	step("sim.new", func() { base, err = sim.New(cfg.Sim, profs) })
	if err != nil {
		return nil, err
	}
	step("sim.warmup", base.Warmup)
	var cp *sim.Checkpoint
	step("sim.snapshot", func() { cp, err = base.Snapshot() })
	if err != nil {
		return nil, err
	}
	step("sim.fork", func() { sys, err = base.ForkAt(cp) })
	if err != nil {
		return nil, err
	}
	step("core.apply_scheme", func() { err = sys.ApplyScheme(sch, apcAlone, api) })
	if err != nil {
		return nil, err
	}
	step("sim.run.settle", func() { sys.Run(cfg.SettleCycles) })
	sys.ResetStats()
	step("sim.run.measure", func() { sys.Run(cfg.MeasureCycles) })
	var res sim.Result
	step("sim.results", func() { res = sys.Results() })
	run := &exper.MixRun{
		Mix: mix, Scheme: scheme, IPCAlone: ipcAlone, APCAlone: apcAlone, API: api,
		Values: make(map[metrics.Objective]float64, 4),
	}
	step("metrics.eval", func() {
		run.Result = res
		shared := res.IPCs()
		for _, obj := range metrics.Objectives() {
			if run.Values[obj], err = obj.Eval(shared, ipcAlone); err != nil {
				return
			}
		}
	})
	return run, err
}

// replayMedians replays a cell h.sz.replays times and returns the median
// duration of each step in nanoseconds, plus the last result.
func (h *harness) replayMedians(tr *tracer, r *exper.Runner, factor int, mix workload.Mix) (map[string]float64, *exper.MixRun, error) {
	first := len(tr.spans)
	var run *exper.MixRun
	for i := 0; i < h.sz.replays; i++ {
		var err error
		if run, err = replayCell(tr, r, mix, "equal"); err != nil {
			return nil, nil, fmt.Errorf("replaying %s: %w", mix.Name, err)
		}
		h.checkCell(factor, run)
	}
	med := make(map[string]float64, len(cellSteps))
	for _, step := range cellSteps {
		ns := durations(tr.spans[first:], step)
		vs := make([]float64, len(ns))
		for i, v := range ns {
			vs[i] = float64(v)
		}
		med[step] = median(vs)
	}
	return med, run, nil
}

func (h *harness) probeSim(tr *tracer, r *exper.Runner, m map[string]float64) error {
	cfg := r.Config()
	sat, light := h.sz.mixes[0], h.sz.mixes[min(5, len(h.sz.mixes)-1)] // homo-1; homo-6 at full size
	cycles := float64(cfg.MeasureCycles)

	steps, run, err := h.replayMedians(tr, r, 1, sat)
	if err != nil {
		return err
	}
	m["sim.new_ms"] = steps["sim.new"] / 1e6
	m["sim.warmup_ms"] = steps["sim.warmup"] / 1e6
	m["sim.snapshot_us"] = steps["sim.snapshot"] / 1e3
	m["sim.fork_us"] = steps["sim.fork"] / 1e3
	m["core.apply_scheme_us"] = steps["core.apply_scheme"] / 1e3
	m["sim.run_ns_per_cycle.sat"] = steps["sim.run.measure"] / cycles
	m["sim.bus_util.sat"] = run.Result.BusUtilization
	m["sim.total_apc.sat"] = run.Result.TotalAPC
	var missRate, interference float64
	for _, app := range run.Result.Apps {
		missRate += app.L2MissRate / float64(len(run.Result.Apps))
		interference += float64(app.InterferenceCycles)
	}
	m["cache.l2_miss_rate.sat"] = missRate
	m["memctrl.interference_cycles.sat"] = interference

	if steps, _, err = h.replayMedians(tr, r, 1, light); err != nil {
		return err
	}
	m["sim.run_ns_per_cycle.light"] = steps["sim.run.measure"] / cycles

	// The Figure 4 regime: the largest scale factor's system.
	factor := h.sz.factors[len(h.sz.factors)-1]
	scaled := cfg
	scaled.Sim.DRAM = scaled.Sim.DRAM.ScaleBandwidth(float64(factor))
	rs, err := exper.NewRunner(scaled)
	if err != nil {
		return err
	}
	if steps, _, err = h.replayMedians(tr, rs, factor, h.sz.scaleMixes[0].Scale(factor)); err != nil {
		return err
	}
	m["sim.warmup_ms.x4"] = steps["sim.warmup"] / 1e6
	m["sim.snapshot_us.x4"] = steps["sim.snapshot"] / 1e3
	m["sim.fork_us.x4"] = steps["sim.fork"] / 1e3
	m["sim.run_ns_per_cycle.x4"] = steps["sim.run.measure"] / cycles

	prof, err := workload.ByName(sat.Benchmarks[1])
	if err != nil {
		return err
	}
	var alone []float64
	for i := 0; i < h.sz.replays; i++ {
		t0 := time.Now()
		if _, err := sim.ProfileAlone(cfg.Sim, prof, cfg.ProfileCycles); err != nil {
			return err
		}
		alone = append(alone, float64(time.Since(t0))/1e6)
	}
	m["sim.profile_alone_ms"] = median(alone)

	t3, err := r.Table3()
	if err != nil {
		return err
	}
	m["sim.table3_class_matches"] = float64(t3.ClassMatches())
	return nil
}

// ---- cpu / cache / memctrl / dram / workload / event: standalone drivers ----

// delayPort is a stub mem.Port that accepts everything and completes each
// request latency cycles later (never, for a negative latency).
type delayPort struct {
	latency int64
	due     []int64
	reqs    []*mem.Request
}

func (p *delayPort) Access(now int64, req *mem.Request) bool {
	if p.latency >= 0 && req.Done != nil {
		p.due = append(p.due, now+p.latency)
		p.reqs = append(p.reqs, req)
	}
	return true
}

func (p *delayPort) tick(now int64) {
	for len(p.due) > 0 && p.due[0] <= now {
		req := p.reqs[0]
		p.due, p.reqs = p.due[1:], p.reqs[1:]
		req.Done(now)
	}
}

// instantPort completes every request within Access, as the cache package's
// own benchmarks do.
type instantPort struct{}

func (instantPort) Access(now int64, req *mem.Request) bool {
	if req.Done != nil {
		req.Done(now)
	}
	return true
}

// perOp times n calls of op and returns nanoseconds per call.
func perOp(n int, op func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

func (h *harness) probeComponents(_ *tracer, r *exper.Runner, m map[string]float64) error {
	simCfg := r.Config().Sim
	prof, err := workload.ByName("milc")
	if err != nil {
		return err
	}

	// cpu: the same core and stream over an L1 that answers in its hit
	// latency (dispatch-bound) and over one that never answers (ROB fills,
	// every tick is a stall).
	for name, latency := range map[string]int64{"cpu.tick_ns.dispatch": simCfg.L1.HitLatency, "cpu.tick_ns.stalled": -1} {
		gen, err := workload.NewGenerator(prof, 0, 1)
		if err != nil {
			return err
		}
		coreCfg := simCfg.Core
		coreCfg.BaseIPC, coreCfg.MaxOutstandingLoads = prof.BaseIPC, prof.MLP
		port := &delayPort{latency: latency}
		c, err := cpu.New(coreCfg, 0, port, gen)
		if err != nil {
			return err
		}
		for cyc := int64(0); cyc < 2000; cyc++ { // reach the steady state first
			port.tick(cyc)
			c.Tick(cyc)
		}
		m[name] = perOp(h.iters(400_000), func(i int) {
			cyc := int64(2000 + i)
			port.tick(cyc)
			c.Tick(cyc)
		})
	}

	// cache: L1 hit on a resident line; L2 miss on a never-repeating stride.
	l1, err := cache.New(simCfg.L1, instantPort{})
	if err != nil {
		return err
	}
	l1.Touch(0x1000, false)
	hit := &mem.Request{Addr: 0x1000}
	m["cache.access_ns.hit"] = perOp(h.iters(2_000_000), func(i int) {
		l1.Access(int64(i), hit)
		l1.Tick(int64(i))
	})
	l2, err := cache.New(simCfg.L2, instantPort{})
	if err != nil {
		return err
	}
	m["cache.access_ns.miss"] = perOp(h.iters(1_000_000), func(i int) {
		l2.Access(int64(i), &mem.Request{Addr: uint64(i) * uint64(simCfg.L2.LineBytes)})
		l2.Tick(int64(i))
	})

	// memctrl: a backlogged start-time-fair controller, 4 apps on the
	// baseline bus and 16 apps on the 4x bus (Figure 4's largest system).
	for _, apps := range []int{4, 16} {
		dev, err := dram.NewDevice(simCfg.DRAM.ScaleBandwidth(float64(apps / 4)))
		if err != nil {
			return err
		}
		shares := make([]float64, apps)
		for i := range shares {
			shares[i] = 1
		}
		stf, err := memctrl.NewStartTimeFair(shares)
		if err != nil {
			return err
		}
		ctl, err := memctrl.New(dev, apps, 0, stf)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(1))
		addr := make([]uint64, apps)
		for i := range addr {
			addr[i] = uint64(i) << 40
		}
		m[fmt.Sprintf("memctrl.tick_ns.sat%d", apps)] = perOp(h.iters(400_000), func(i int) {
			cyc := int64(i)
			for app := 0; app < apps; app++ {
				for ctl.PendingFor(app) < 8 {
					ctl.Access(cyc, &mem.Request{App: app, Addr: addr[app]})
					addr[app] += uint64(64 * (1 + rng.Intn(8)))
				}
			}
			ctl.Tick(cyc)
		})
	}

	// dram: open-page issue to one bank, same row vs alternating rows.
	open := simCfg.DRAM
	open.Policy = dram.OpenPage
	cols := open.RowBytes / open.LineBytes
	for name, rows := range map[string]int{"dram.issue_ns.rowhit": 1, "dram.issue_ns.conflict": 2} {
		dev, err := dram.NewDevice(open)
		if err != nil {
			return err
		}
		now := int64(0)
		m[name] = perOp(h.iters(1_000_000), func(i int) {
			co := dram.Coord{Row: i % rows, Col: i % cols}
			for !dev.BankReady(co, now) {
				now += 10
			}
			now = dev.Issue(now, co, 0, false)
		})
	}

	gen, err := workload.NewGenerator(prof, 0, 1)
	if err != nil {
		return err
	}
	var sink uint64
	m["workload.next_ns"] = perOp(h.iters(4_000_000), func(int) { sink += gen.Next().Addr })

	var q event.Queue
	fired := 0
	fire := func() { fired++ }
	m["event.pushpop_ns"] = perOp(h.iters(4_000_000), func(i int) {
		q.At(int64(i+i%64), fire)
		q.RunUntil(int64(i))
	})
	if sink == 0 || fired == 0 {
		return fmt.Errorf("component probes did no work")
	}

	col := r.Config().Obs
	m["obs.snapshot_us"] = perOp(h.iters(20_000), func(int) { col.Snapshot() }) / 1e3
	return nil
}

// ---- core + exper ----

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (h *harness) probeExper(_ *tracer, r *exper.Runner, m map[string]float64) error {
	cfg := r.Config()
	m["exper.newrunner_us"] = perOp(h.iters(2000), func(int) { exper.NewRunner(cfg) }) / 1e3

	// Cold cells on a profiled runner: a mix's first cell pays warmup and
	// snapshot, the others fork the warm base.
	var first, fork []float64
	for _, mix := range h.sz.effMixes[:2] {
		for i, scheme := range h.sz.schemes {
			t0 := time.Now()
			run, err := r.RunMix(mix, scheme)
			ms := float64(time.Since(t0)) / 1e6
			if err != nil {
				return err
			}
			h.checkCell(1, run)
			if i == 0 {
				first = append(first, ms)
			} else {
				fork = append(fork, ms)
			}
		}
	}
	m["exper.runmix_cold_ms.first"] = median(first)
	m["exper.runmix_cold_ms.fork"] = median(fork)

	// core: model accuracy over the whole grid. RunGrid resolves what is
	// still missing; ValidateModel then runs on cache hits.
	runs, err := r.RunGrid(context.Background(), h.sz.mixes, h.sz.schemes)
	if err != nil {
		return err
	}
	for _, run := range runs {
		h.checkCell(1, run)
	}
	val, err := r.ValidateModel(h.sz.mixes)
	if err != nil {
		return err
	}
	var maxErr float64
	for _, row := range val.Rows {
		maxErr = math.Max(maxErr, row.RelError())
	}
	m["core.model_err_mean_pct"] = 100 * val.MeanRelError()
	m["core.model_err_max_pct"] = 100 * maxErr

	// The memory-tier hit: ResultCache.Do plus the deep copy.
	hitMix, hitScheme := h.sz.mixes[0], h.sz.schemes[1]
	n := h.iters(20_000)
	before := mallocs()
	m["exper.runmix_hit_us"] = perOp(n, func(int) { r.RunMix(hitMix, hitScheme) }) / 1e3
	m["exper.runmix_hit_allocs"] = float64(mallocs()-before) / float64(n)

	// The same hit through RunGrid (the path a /v1/mix request takes),
	// cycling over every mix of the grid: with more mixes than the warm-base
	// LRU holds, RunGrid re-warms an evicted base before it looks in the
	// result cache.
	cells := exper.Grid(h.sz.mixes, h.sz.schemes)
	rand.New(rand.NewSource(1)).Shuffle(len(cells), func(a, b int) { cells[a], cells[b] = cells[b], cells[a] })
	var gridErr error
	m["exper.rungrid_hit_us.wide"] = perOp(len(cells), func(i int) {
		if _, err := r.RunGrid(context.Background(), []workload.Mix{cells[i].Mix}, []string{cells[i].Scheme}); err != nil {
			gridErr = err
		}
	}) / 1e3
	if gridErr != nil {
		return gridErr
	}

	// The disk tier: one cell saved and loaded through a CheckpointStore.
	dir, err := h.tempDir()
	if err != nil {
		return err
	}
	store, err := exper.NewCheckpointStore(dir)
	if err != nil {
		return err
	}
	run, err := r.RunMix(hitMix, hitScheme)
	if err != nil {
		return err
	}
	var saveErr error
	m["exper.ckpt_save_us"] = perOp(h.iters(1000), func(int) {
		if err := store.Save(r, run); err != nil {
			saveErr = err
		}
	}) / 1e3
	if saveErr != nil {
		return saveErr
	}
	loaded := true
	m["exper.ckpt_load_us"] = perOp(h.iters(5000), func(int) {
		if _, ok := store.Load(r, hitMix, hitScheme); !ok {
			loaded = false
		}
	}) / 1e3
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 || !loaded {
		return fmt.Errorf("checkpoint probe: %d files, loaded %t: %v", len(files), loaded, err)
	}
	info, err := os.Stat(files[0])
	if err != nil {
		return err
	}
	m["exper.ckpt_file_bytes"] = float64(info.Size())

	// Fan-out efficiency: the same cold sub-grid with one and two workers.
	var wall [engineParallelism + 1]float64
	for _, p := range []int{1, engineParallelism} {
		pcfg := experConfig()
		pcfg.Parallelism = p
		pr, err := exper.NewRunner(pcfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		runs, err := pr.RunGrid(context.Background(), h.sz.effMixes, h.sz.schemes)
		wall[p] = time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		for _, run := range runs {
			h.checkCell(1, run)
		}
	}
	m["exper.grid_parallel_eff"] = wall[1] / (engineParallelism * wall[engineParallelism])
	return nil
}

// ---- serve ----

// probeCells is the small grid the serve probes populate cell by cell.
func (h *harness) probeCells() []gridCell {
	var cells []gridCell
	for _, mix := range h.sz.effMixes[:2] {
		for _, scheme := range h.sz.schemes {
			cells = append(cells, gridCell{mix.Name, scheme})
		}
	}
	return cells
}

// coldRequests resolves every probe cell through /v1/mix, verifying each,
// and returns the latencies of each mix's first cell and of the others.
func (h *harness) coldRequests(s *site, cells []gridCell) (first, fork []float64, err error) {
	for i, c := range cells {
		t0 := time.Now()
		err := s.request(nil, c)
		ms := float64(time.Since(t0)) / 1e6
		if err != nil {
			return nil, nil, err
		}
		var run exper.MixRun
		if err := json.Unmarshal(s.body.Bytes(), &run); err != nil {
			return nil, nil, err
		}
		h.checkCell(1, &run)
		if i%len(h.sz.schemes) == 0 {
			first = append(first, ms)
		} else {
			fork = append(fork, ms)
		}
	}
	return first, fork, nil
}

// handlerHits times n hit requests through Handler().ServeHTTP on a
// recorder — no socket, no client — and returns the median in microseconds
// and the handler's allocations per request (net of building the request
// and recorder).
func handlerHits(handler http.Handler, body []byte, n int) (p50us, allocs float64, err error) {
	build := func() (*httptest.ResponseRecorder, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/mix", bytes.NewReader(body))
	}
	before := mallocs()
	for i := 0; i < n; i++ {
		build()
	}
	scaffold := mallocs() - before

	lat := make([]int64, n)
	before = mallocs()
	for i := range lat {
		rec, req := build()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		lat[i] = int64(time.Since(t0))
		if rec.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("handler: status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
	}
	total := mallocs() - before
	return percentileNS(sortedCopy(lat), 0.5) / 1e3, (float64(total) - float64(scaffold)) / float64(n), nil
}

func (h *harness) probeServeMem(_ *tracer, _ *exper.Runner, m map[string]float64) error {
	s, err := openSite(experConfig())
	if err != nil {
		return err
	}
	defer s.close()
	cells := h.probeCells()
	first, fork, err := h.coldRequests(s, cells)
	if err != nil {
		return err
	}
	m["serve.cold_latency_p50_ms.first"] = median(first)
	m["serve.cold_latency_p50_ms.fork"] = median(fork)

	// One closed-loop client, then two, over the now-resident cells.
	passes := h.iters(15_000) / len(cells)
	lat := make([]int64, 0, passes*len(cells))
	t0 := time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, c := range cells {
			start := time.Now()
			if err := s.request(nil, c); err != nil {
				return err
			}
			lat = append(lat, int64(time.Since(start)))
		}
	}
	rate1 := float64(len(lat)) / time.Since(t0).Seconds()
	sorted := sortedCopy(lat)
	m["serve.latency_p50_ms"] = percentileNS(sorted, 0.5) / 1e6
	m["serve.latency_p95_ms"] = percentileNS(sorted, 0.95) / 1e6
	if !percentileSupported(len(lat), 0.95) {
		// Too few samples for a 95th percentile (smoke-test sizes): report
		// the slowest request, never the median.
		m["serve.latency_p95_ms"] = float64(sorted[len(sorted)-1]) / 1e6
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	var clientErr error
	queueMax := 0
	t0 = time.Now()
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			peer := &site{base: s.base, hc: newClient()}
			defer peer.hc.CloseIdleConnections()
			deepest := 0
			var err error
			for pass := 0; pass < passes/2 && err == nil; pass++ {
				for _, c := range cells {
					deepest = max(deepest, s.srv.QueueDepth())
					if err = peer.request(nil, c); err != nil {
						break
					}
				}
			}
			mu.Lock()
			queueMax = max(queueMax, deepest)
			if err != nil {
				clientErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if clientErr != nil {
		return clientErr
	}
	rate2 := float64(2*(passes/2)*len(cells)) / time.Since(t0).Seconds()
	m["serve.c2_over_c1"] = rate2 / rate1
	m["serve.queue_max"] = float64(queueMax)

	// The handler alone, then its decode and encode steps on their own.
	reqBody, err := json.Marshal(serve.MixRequest{Mix: cells[0].mix, Scheme: cells[0].scheme})
	if err != nil {
		return err
	}
	n := h.iters(20_000)
	handler := s.srv.Handler()
	if m["serve.handler_hit_us"], m["serve.hit_allocs_per_req"], err = handlerHits(handler, reqBody, n); err != nil {
		return err
	}
	if err := s.request(nil, cells[0]); err != nil {
		return err
	}
	m["serve.resp_bytes"] = float64(s.body.Len())
	var run exper.MixRun
	if err := json.Unmarshal(s.body.Bytes(), &run); err != nil {
		return err
	}
	var codecErr error
	m["serve.decode_us"] = perOp(n, func(int) {
		var req serve.MixRequest
		if err := json.NewDecoder(bytes.NewReader(reqBody)).Decode(&req); err != nil {
			codecErr = err
		}
	}) / 1e3
	m["serve.encode_us"] = perOp(n, func(int) {
		if err := json.NewEncoder(io.Discard).Encode(&run); err != nil {
			codecErr = err
		}
	}) / 1e3
	if codecErr != nil {
		return codecErr
	}
	m["serve.metrics_scrape_us"] = perOp(h.iters(5000), func(int) {
		handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/metrics", nil))
	}) / 1e3
	return nil
}

// probeServeDisk measures the restart-safe configuration: boot time on a
// populated directory, the handler's hit path with a checkpoint store, the
// journal's growth per hit, and boot time again after that traffic.
func (h *harness) probeServeDisk(_ *tracer, _ *exper.Runner, m map[string]float64) error {
	dir, err := h.tempDir()
	if err != nil {
		return err
	}
	options := func() (serve.Options, error) {
		cfg := experConfig()
		var err error
		cfg.Checkpoint, err = exper.NewCheckpointStore(dir)
		return serve.Options{Exper: cfg, Workers: engineParallelism}, err
	}
	bootMS := func() (float64, error) {
		opts, err := options()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		srv, err := serve.New(opts)
		ms := float64(time.Since(t0)) / 1e6
		if err != nil {
			return 0, err
		}
		return ms, drain(srv)
	}

	opts, err := options()
	if err != nil {
		return err
	}
	s, err := openSite(opts.Exper)
	if err != nil {
		return err
	}
	cells := h.probeCells()
	if _, _, err := h.coldRequests(s, cells); err != nil {
		s.close()
		return err
	}
	if err := s.close(); err != nil {
		return err
	}
	if m["serve.boot_ms"], err = bootMS(); err != nil {
		return err
	}

	opts, err = options()
	if err != nil {
		return err
	}
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}
	journal := filepath.Join(dir, "journal.jsonl")
	sizeOf := func() float64 {
		info, err := os.Stat(journal)
		if err != nil {
			return 0
		}
		return float64(info.Size())
	}
	reqBody, err := json.Marshal(serve.MixRequest{Mix: cells[0].mix, Scheme: cells[0].scheme})
	if err != nil {
		drain(srv)
		return err
	}
	n := h.iters(20_000)
	before := sizeOf()
	p50, _, err := handlerHits(srv.Handler(), reqBody, n)
	if derr := drain(srv); err == nil {
		err = derr
	}
	if err != nil {
		return err
	}
	m["serve.handler_hit_us.disk"] = p50
	// handlerHits sends n requests (its scaffold loop sends none).
	m["serve.journal_bytes_per_req"] = (sizeOf() - before) / float64(n)
	m["serve.boot_ms.after_run"], err = bootMS()
	return err
}

// Package exper defines runnable reproductions of every table and figure
// in the paper's evaluation (Table III, Table IV, Figures 1-4) plus the
// model-validation and online-profiling extensions. Each experiment returns
// a Table holding the rows or series the paper reports together with the
// numbers behind them; Studies lists the figure suite.
package exper

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"bwpart/internal/faultinject"
	"bwpart/internal/metrics"
	"bwpart/internal/obs"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// NoPartitioning is the scheme identifier for the FCFS baseline.
const NoPartitioning = "no-partitioning"

// Figure2Schemes lists the six managed schemes of Figure 2 in legend order.
func Figure2Schemes() []string {
	return []string{"equal", "proportional", "square-root", "two-thirds-power", "priority-apc", "priority-api"}
}

// Figure1Schemes lists the five schemes of the motivation figure.
func Figure1Schemes() []string {
	return []string{"equal", "proportional", "square-root", "priority-api", "priority-apc"}
}

// Config sets the simulation windows shared by all experiments.
type Config struct {
	Sim           sim.Config
	ProfileCycles int64 // standalone profiling window per benchmark
	SettleCycles  int64 // shared-run settling before measurement
	MeasureCycles int64 // shared-run measurement window
	Seed          int64
	// Tracer, when set, observes every off-chip access issued during
	// shared runs (not during standalone profiling): for trace recording.
	Tracer func(cycle int64, app int, addr uint64, write bool)
	// Parallelism caps concurrent simulations in fan-out experiments
	// (0 = $BWPART_PARALLELISM if set, else GOMAXPROCS).
	Parallelism int
	// Obs, when set, collects job counters, per-stage wall time, and
	// memory-controller queue-depth statistics for every run. Nil disables
	// observability at negligible cost.
	Obs *obs.Collector
	// Checkpoint, when set, persists every finished cell and
	// resumes interrupted work by loading the cells already on disk instead
	// of re-simulating them.
	Checkpoint *CheckpointStore
	// Cache shares an in-memory result cache across runners: a unique
	// (config fingerprint, cell) pair is simulated at most once per
	// process, concurrent requests coalesce onto one simulation, and every
	// caller gets an isolated deep copy. Nil gives the runner a private
	// cache (NewRunner fills this field, so sub-runners derived from
	// Runner.Config() inherit it).
	Cache *ResultCache
	// CacheBytes bounds the resident size of the result cache: past the
	// bound, least-recently-used finished cells are evicted (and their next
	// request re-simulates, or loads from the checkpoint tier). 0 leaves
	// the cache unbounded — fine for one-shot sweeps, not for a long-lived
	// service. Applied to Cache (own or shared) by NewRunner.
	CacheBytes int64
	// BaseContext, when set, is the base context for experiment fan-outs
	// that have no explicit context parameter (the figures, tables, and
	// studies): cancelling it stops dispatch of not-yet-started simulations,
	// so Ctrl-C interrupts a long figure pass between cells. Nil means
	// context.Background(). RunGrid takes its context explicitly and
	// ignores this field.
	BaseContext context.Context
	// Faults, when set, arms the deterministic fault-injection layer on the
	// cell path (checkpoint I/O, cell panics, cell delays — see
	// internal/faultinject). Nil (the default) makes every fault hook a
	// one-branch no-op; production never sets this.
	Faults *faultinject.Injector
	// NoMemoize disables the result cache and warm-base sharing entirely:
	// every RunMix re-warms and re-simulates from scratch. Test oracle (the
	// cold executor the differential tests compare against); no CLI selects it.
	NoMemoize bool
}

// Default returns the full-fidelity configuration used for the recorded
// results in EXPERIMENTS.md.
func Default() Config {
	return Config{
		Sim:           sim.DefaultConfig(),
		ProfileCycles: 500_000,
		SettleCycles:  100_000,
		MeasureCycles: 700_000,
		Seed:          1,
	}
}

// Quick returns a reduced configuration for tests and benchmarks. The
// windows stay long enough that the paper's qualitative orderings are
// stable; Default is what EXPERIMENTS.md records.
func Quick() Config {
	cfg := Default()
	cfg.Sim.WarmupInstructions = 100_000
	cfg.ProfileCycles = 300_000
	cfg.SettleCycles = 60_000
	cfg.MeasureCycles = 400_000
	return cfg
}

// Validate checks the windows and every part of the simulator configuration
// that is fixed for the runner's lifetime, so a bad geometry fails at
// construction instead of on every run (the core's BaseIPC and
// MaxOutstandingLoads are per-application overrides and checked per system).
func (c Config) Validate() error {
	if c.ProfileCycles <= 0 || c.SettleCycles < 0 || c.MeasureCycles <= 0 {
		return errors.New("exper: simulation windows must be positive")
	}
	if err := c.Sim.L1.Validate(); err != nil {
		return fmt.Errorf("exper: L1: %w", err)
	}
	if err := c.Sim.L2.Validate(); err != nil {
		return fmt.Errorf("exper: L2: %w", err)
	}
	if c.Sim.Core.Width <= 0 || c.Sim.Core.ROBSize <= 0 {
		return errors.New("exper: core Width and ROBSize must be positive")
	}
	return c.Sim.DRAM.Validate()
}

// preparedCap bounds how many finished warm mix bases a runner keeps alive at
// once (LRU-evicted beyond that; bases pinned by in-flight measurements never
// are): enough that the paper's figure suites keep their working set warm,
// small enough that huge sweeps stay memory-bounded.
const preparedCap = 8

// Runner executes experiments. Standalone profiles are memoized per benchmark
// (single-flight, so concurrent first requests share one profiling run),
// and unless Config.NoMemoize is set, every cell — a (mix, policy, shares,
// epochs) value, see GridCell — flows through a memoized executor: the result cache
// deduplicates whole cells and the prepared-mix registry shares one warm base
// per mix across RunMix, RunGrid and every windowed study.
type Runner struct {
	cfg Config
	fp  string // canonical configuration fingerprint, fixed at construction

	alone    memo[sim.AloneProfile] // unbounded, cost 0
	cache    *ResultCache           // nil iff NoMemoize
	prepared *preparedRegistry      // nil iff NoMemoize
}

// NewRunner builds a Runner over cfg.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Sim.Seed = cfg.Seed
	r := &Runner{alone: newMemo[sim.AloneProfile](0, nil), fp: configFingerprint(cfg)}
	if !cfg.NoMemoize {
		if cfg.Cache == nil {
			cfg.Cache = NewResultCache()
		}
		if cfg.CacheBytes > 0 {
			cfg.Cache.SetMaxBytes(cfg.CacheBytes)
		}
		r.cache = cfg.Cache
		r.prepared = newPreparedRegistry(r)
	}
	// cfg.Cache is written back (above) so sub-runners built from this
	// runner's Config() — per-seed repeatability runners, Figure 4's
	// per-bandwidth runners — share the same process-wide cache.
	r.cfg = cfg
	cfg.Checkpoint.attach(cfg.Obs, cfg.Faults)
	return r, nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// Alone returns the memoized standalone profile of a benchmark, profiling it
// on first use. Safe for concurrent use: concurrent first requests for the
// same benchmark coalesce onto one profiling run (single-flight), so a
// profile run happens once per (benchmark, memory configuration); a failed
// one is retried by the next request.
func (r *Runner) Alone(name string) (sim.AloneProfile, error) {
	e, _, err := r.alone.get(name, nil, true, false, func() (sim.AloneProfile, int64, error) {
		p, err := workload.ByName(name)
		if err != nil {
			return sim.AloneProfile{}, 0, err
		}
		stop := r.cfg.Obs.StageStart(obs.StageProfile)
		ap, err := sim.ProfileAlone(r.cfg.Sim, p, r.cfg.ProfileCycles)
		stop()
		return ap, 0, err
	})
	if err != nil {
		return sim.AloneProfile{}, err
	}
	return e.val, nil
}

// aloneVectors resolves the profile vectors for a mix.
func (r *Runner) aloneVectors(mix workload.Mix) (apcAlone, api, ipcAlone []float64, err error) {
	n := len(mix.Benchmarks)
	apcAlone = make([]float64, n)
	api = make([]float64, n)
	ipcAlone = make([]float64, n)
	for i, name := range mix.Benchmarks {
		ap, err := r.Alone(name)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("mix %s: %w", mix.Name, err)
		}
		apcAlone[i], api[i], ipcAlone[i] = ap.APCAlone, ap.API, ap.IPCAlone
	}
	return apcAlone, api, ipcAlone, nil
}

// queueSamples is how many evenly spaced memory-controller queue-depth
// observations an observed measurement window records.
const queueSamples = 8

// runMeasured advances the system through the measurement window. With a
// collector installed, the window is split into chunks and the
// memory-controller queue depth is sampled at each boundary; without one it
// is a single Run call (zero overhead).
func (r *Runner) runMeasured(sys *sim.System, cycles int64) {
	if r.cfg.Obs == nil || cycles < queueSamples {
		sys.Run(cycles)
		return
	}
	chunk := cycles / queueSamples
	sampler := r.cfg.Obs.NewQueueSampler(sys)
	for i := int64(0); i < queueSamples; i++ {
		n := chunk
		if i == queueSamples-1 {
			n = cycles - chunk*(queueSamples-1) // remainder lands in the last chunk
		}
		sys.Run(n)
		sampler.Sample()
	}
}

// MixRun is one cell's measurement: the mix under the policy named Scheme,
// enforcing Shares when the policy takes a share vector and running Epochs
// epochs of Epoch cycles when it is online.
type MixRun struct {
	Mix    workload.Mix
	Scheme string
	// Shares, Epoch, Epochs and EstimatedAPCAlone are absent from a plain
	// cell's JSON, so plain cells encode as they did before cells could
	// carry them.
	Shares   []float64 `json:",omitempty"`
	Epoch    int64     `json:",omitempty"`
	Epochs   int       `json:",omitempty"`
	IPCAlone []float64
	APCAlone []float64
	// EstimatedAPCAlone is an online cell's final smoothed APC_alone
	// estimate per app.
	EstimatedAPCAlone []float64 `json:",omitempty"`
	API               []float64
	Result            sim.Result
	// Values holds the four objectives evaluated on the measured IPCs.
	Values map[metrics.Objective]float64
}

// cell is the cell run measured.
func (run *MixRun) cell() GridCell {
	return GridCell{Mix: run.Mix, Scheme: run.Scheme, Shares: run.Shares, Epoch: run.Epoch, Epochs: run.Epochs}
}

// preparedMix is the shared prefix of every measurement on one mix: its
// immutable profiles plus the checkpoint of its warmed state. RunGrid
// prepares each mix once and restores the checkpoint into a new system per
// cell, so the functional warmup is paid once per mix instead of once per
// cell.
type preparedMix struct {
	profs []workload.Profile
	cp    *sim.Checkpoint
}

// prepareMix builds the mix's system, runs the functional warmup, and
// snapshots the warmed state. The system is returned too, sitting exactly at
// the checkpoint: the unmemoized executor measures on it, the registry drops
// it.
func (r *Runner) prepareMix(mix workload.Mix) (*preparedMix, *sim.System, error) {
	profs, err := mix.Profiles()
	if err != nil {
		return nil, nil, err
	}
	sys, err := sim.New(r.cfg.Sim, profs)
	if err != nil {
		return nil, nil, err
	}
	stop := r.cfg.Obs.StageStart(obs.StageWarmup)
	sys.Warmup()
	stop()
	cp, err := sys.Snapshot()
	if err != nil {
		return nil, nil, err
	}
	return &preparedMix{profs: profs, cp: cp}, sys, nil
}

// forkPrepared builds a fresh system positioned at p's warm checkpoint. It
// reads only p's immutable parts, so any number of cells can fork one
// prepared mix concurrently (forked runs are bit-identical to cold runs; the
// differential tests in this package enforce it).
func (r *Runner) forkPrepared(p *preparedMix) (*sim.System, error) {
	sys, err := sim.New(r.cfg.Sim, p.profs)
	if err != nil {
		return nil, err
	}
	return sys, sys.Restore(p.cp)
}

// measure is the one settle → mark → measure tail every cell shares: sys is
// warmed and already carries the configuration under test. The settle window
// is SettleCycles long, or an online policy's epochs, whose final estimates
// measure returns. With a collector installed the two windows are
// stage-timed, the measurement window samples the queue depth, and the
// system's kernel counters join the totals.
func (r *Runner) measure(sys *sim.System, pol policy, a policyArgs) (sim.Result, []float64, error) {
	if r.cfg.Tracer != nil {
		sys.Controller().SetTracer(r.cfg.Tracer)
	}
	var est []float64
	var err error
	stop := r.cfg.Obs.StageStart(obs.StageSettle)
	if pol.settle == nil {
		sys.Run(r.cfg.SettleCycles)
	} else {
		est, err = pol.settle(sys, a)
	}
	stop()
	if err != nil {
		return sim.Result{}, nil, err
	}
	sys.ResetStats()
	stop = r.cfg.Obs.StageStart(obs.StageMeasure)
	r.runMeasured(sys, r.cfg.MeasureCycles)
	stop()
	if r.cfg.Obs != nil {
		ks := sys.KernelStats()
		tot := obs.KernelStats{Cycles: ks.Cycles, CyclesTicked: ks.Ticked}
		for _, c := range ks.Components {
			tot.ComponentTicks += c.Ticks
			tot.ComponentSlept += c.Slept
			tot.Pokes += c.Pokes
		}
		r.cfg.Obs.AddKernel(tot)
	}
	return sys.Results(), est, nil
}

// runConfigured measures one cell from its mix's warmed state: pol installs
// the cell's controller configuration and measure runs. When memoizing, the
// system is a fresh one restored from the mix's shared warm checkpoint, whose
// base stays pinned against LRU eviction for the duration; it is garbage once
// measured. Under NoMemoize a private system is built and warmed for this one
// run: the reference executor the differential tests compare every memoized
// path against.
func (r *Runner) runConfigured(pol policy, a policyArgs) (sim.Result, []float64, error) {
	var p *preparedMix
	var sys *sim.System
	var err error
	if r.prepared == nil {
		p, sys, err = r.prepareMix(a.cell.Mix)
	} else {
		var release func()
		if p, release, err = r.prepared.acquire(a.cell.Mix); err != nil {
			return sim.Result{}, nil, err
		}
		defer release()
		r.cfg.Obs.Add(obs.WarmForks, 1)
		sys, err = r.forkPrepared(p)
	}
	if err == nil {
		a.profs = p.profs
		err = pol.apply(sys, a)
	}
	if err != nil {
		return sim.Result{}, nil, err
	}
	return r.measure(sys, pol, a)
}

// runCell simulates one cell and evaluates all four objectives on the
// measured IPCs.
func (r *Runner) runCell(c GridCell) (*MixRun, error) {
	pol, err := policyFor(c)
	if err != nil {
		return nil, err
	}
	apcAlone, api, ipcAlone, err := r.aloneVectors(c.Mix)
	if err != nil {
		return nil, err
	}
	res, est, err := r.runConfigured(pol, policyArgs{cell: c, apcAlone: apcAlone, api: api, seed: r.cfg.Seed})
	if err != nil {
		return nil, err
	}
	run := &MixRun{
		Mix:               c.Mix,
		Scheme:            c.Scheme,
		Shares:            c.Shares,
		Epoch:             c.Epoch,
		Epochs:            c.Epochs,
		IPCAlone:          ipcAlone,
		APCAlone:          apcAlone,
		EstimatedAPCAlone: est,
		API:               api,
		Result:            res,
		Values:            make(map[metrics.Objective]float64, 4),
	}
	shared := res.IPCs()
	for _, obj := range metrics.Objectives() {
		v, err := obj.Eval(shared, ipcAlone)
		if err != nil {
			return nil, fmt.Errorf("exper: %s/%s: %w", c.Mix.Name, c.Scheme, err)
		}
		run.Values[obj] = v
	}
	return run, nil
}

// RunMix resolves one mix under one policy — any CheckPolicy accepts:
// NoPartitioning, a core scheme, a heuristic scheduler or fr-fcfs — and
// evaluates all four objectives. Unless the runner was built with
// NoMemoize, an identical cell already resolved (by any entry point sharing
// the cache) is returned as a deep copy, a concurrent identical request joins
// the in-flight one, and a fresh cell is measured from the mix's shared warm
// checkpoint.
func (r *Runner) RunMix(mix workload.Mix, scheme string) (*MixRun, error) {
	return r.lookup(GridCell{Mix: mix, Scheme: scheme}, true)
}

// lookup is the engine's one lookup order for a cell, which every entry
// point and every windowed study flows through: the cell's policy is
// checked against the registry, then the in-memory result cache, then the on-disk
// checkpoint store (a disk hit is promoted into the cache under the cell's
// single-flight key), then — only when simulate is set — a real simulation.
// Without simulate a cell in neither tier fails with errNotResident and
// nothing is profiled, warmed, or forked. With a tracer installed the result
// cache is bypassed — a cache hit would silently skip the trace the caller
// asked for — but warm-base sharing still applies (forked runs emit
// bit-identical traces).
func (r *Runner) lookup(c GridCell, simulate bool) (*MixRun, error) {
	if _, err := policyFor(c); err != nil {
		return nil, err
	}
	load := func() (*MixRun, []byte) { return r.cfg.Checkpoint.load(r, c) }
	var sim func() (*MixRun, error)
	if simulate {
		sim = func() (*MixRun, error) { return r.simulateCell(c) }
	}
	var run *MixRun
	var err error
	if r.cache == nil || r.cfg.Tracer != nil {
		run, _, err = resolveCell(r.cfg.Obs, load, sim)
	} else {
		var e *memoEntry[cellValue]
		if e, err = r.cache.flight(cellKey(r.fp, c), r.cfg.Obs, load, sim, true); err == nil {
			run = copyMixRun(e.val.run) // the master is never handed out
		}
	}
	if err != nil {
		return nil, err
	}
	// Cells are content-addressed in both tiers, so a hit may carry the
	// labels of an aliased mix (e.g. hetero-5 serving the motivation mix).
	// Restamp the requested mix's display fields; the benchmark list is equal
	// by key construction and the simulation never read the labels.
	run.Mix.Name = c.Mix.Name
	run.Mix.PaperRSD = c.Mix.PaperRSD
	return run, nil
}

// ResidentJSON is encodeRun of what RunMix would return for a resident cell:
// its stored bytes from memory or, promoting it, from disk — never waiting on
// a cell in flight, simulating or copying. Any other cell fails, as does every
// cell of a runner without a result cache or with a tracer.
func (r *Runner) ResidentJSON(mix workload.Mix, scheme string) ([]byte, error) {
	c := GridCell{Mix: mix, Scheme: scheme}
	return r.residentJSON(c, r.cfg.Obs, func() (*MixRun, []byte) { return r.cfg.Checkpoint.load(r, c) })
}

// EncodeCell is encodeRun(run) for a run this runner resolved: the resident
// cell's stored bytes (a memory probe, uncounted), so a miss answers with what
// its hits get.
func (r *Runner) EncodeCell(run *MixRun) ([]byte, error) {
	if enc, err := r.residentJSON(run.cell(), nil, func() (*MixRun, []byte) { return nil, nil }); err == nil {
		return enc, nil
	}
	return encodeRun(run)
}

// residentJSON is ResidentJSON counted on col, with load as the disk tier. An
// aliased mix gets a fresh encoding of the master restamped, as lookup does.
func (r *Runner) residentJSON(c GridCell, col *obs.Collector, load func() (*MixRun, []byte)) ([]byte, error) {
	if r.cache == nil || r.cfg.Tracer != nil {
		return nil, errNotResident
	}
	key := cellKey(r.fp, c)
	e, err := r.cache.flight(key, col, load, nil, false)
	if err != nil {
		return nil, err
	}
	if run := e.val.run; run.Mix.Name != c.Mix.Name || run.Mix.PaperRSD != c.Mix.PaperRSD {
		cp := *run
		cp.Mix.Name, cp.Mix.PaperRSD = c.Mix.Name, c.Mix.PaperRSD
		return encodeRun(&cp)
	}
	return r.cache.encoding(key, e, r.cfg.Obs)
}

// encodeRun is a cell's one encoding: json.Marshal(run) — the bytes
// CheckpointStore.Save writes — plus the newline json.Encoder adds.
func encodeRun(run *MixRun) ([]byte, error) {
	enc, err := json.Marshal(run)
	return append(enc, '\n'), err
}

// simulateCell is the last step of the lookup order: a real simulation,
// persisted to the checkpoint store.
func (r *Runner) simulateCell(c GridCell) (*MixRun, error) {
	r.cfg.Faults.Sleep(faultinject.CellDelay)
	if r.cfg.Faults.Fire(faultinject.CellPanic) {
		panic(fmt.Sprintf("injected cell panic (%s/%s)", c.Mix.Name, c.Scheme))
	}
	run, err := r.runCell(c)
	if err != nil {
		return nil, err
	}
	// A Save failure degrades the store — logged and counted there — but
	// never fails a cell that was successfully simulated.
	_ = r.cfg.Checkpoint.Save(r, run)
	return run, nil
}

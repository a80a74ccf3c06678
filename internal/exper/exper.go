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
	"slices"
	"sync"

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
	// caller gets the cached cell itself, which it must not modify. Nil
	// gives the runner a private cache, for every System of its cells
	// (NewRunner fills this field, so a runner built from another's Config()
	// shares it).
	Cache *ResultCache
	// CacheBytes bounds the resident size of the result cache: past the
	// bound, least-recently-used finished cells are evicted (and their next
	// request re-simulates, or loads from the checkpoint tier). 0 leaves
	// the cache unbounded — fine for one-shot sweeps, not for a long-lived
	// service — and a negative bound is invalid. Applied to Cache (own or
	// shared) by NewRunner.
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
	if c.CacheBytes < 0 {
		return fmt.Errorf("exper: result-cache budget CacheBytes %d is negative (0 leaves the cache unbounded)", c.CacheBytes)
	}
	return c.Sim.DRAM.Validate()
}

// preparedCap bounds the finished warm bases a runner keeps alive, counted in
// four-core bases (see baseCost; LRU-evicted beyond that; bases pinned by
// in-flight measurements never are): enough that the paper's figure suites
// keep their working set warm, small enough that huge sweeps stay
// memory-bounded, whatever the systems' core counts.
const preparedCap = 8

// Runner executes experiments. Standalone profiles are memoized per
// (benchmark, system) (single-flight, so concurrent first requests share one
// profiling run), and every cell — see GridCell — flows through one memoized
// executor: the result cache deduplicates whole cells and the warm bases
// share one warmed checkpoint per (system, mix).
type Runner struct {
	cfg Config
	own *system // the zero System: cfg and its fingerprint, fixed at construction

	systemsMu sync.Mutex
	systems   map[System]*system     // every other System a cell named, resolved once (at most systemsCap)
	alone     memo[sim.AloneProfile] // keyed by alone fingerprint and benchmark: unbounded, cost 0
	bases     memo[*preparedMix]     // warm bases, keyed by baseKey: see acquire
}

// NewRunner builds a Runner over cfg.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Sim.Seed = cfg.Seed
	if cfg.Cache == nil {
		cfg.Cache = NewResultCache()
	}
	if cfg.CacheBytes > 0 {
		cfg.Cache.SetMaxBytes(cfg.CacheBytes)
	}
	r := &Runner{
		cfg: cfg, own: newSystem(cfg), // with its Cache, which a runner built from Config() shares
		systems: make(map[System]*system),
		alone:   newMemo[sim.AloneProfile](0, nil),
		bases: newMemo[*preparedMix](preparedCap, func(col *obs.Collector, evicted, _ int64) {
			col.Add(obs.PreparedEvictions, evicted)
		}),
	}
	cfg.Checkpoint.attach(cfg.Obs, cfg.Faults)
	return r, nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// Alone returns the memoized standalone profile of a benchmark on the
// runner's own system, profiling it on first use. Safe for concurrent use:
// concurrent first requests coalesce onto one profiling run (single-flight),
// so a profile run happens once per (benchmark, memory configuration); a
// failed one is retried by the next request.
func (r *Runner) Alone(name string) (sim.AloneProfile, error) { return r.aloneOn(r.own, name) }

// aloneOn is Alone on on, keyed by its alone fingerprint.
func (r *Runner) aloneOn(on *system, name string) (sim.AloneProfile, error) {
	e, _, err := r.alone.get(on.aloneFP+"/"+name, nil, true, false, func() (sim.AloneProfile, int64, error) {
		p, err := workload.ByName(name)
		if err != nil {
			return sim.AloneProfile{}, 0, err
		}
		stop := r.cfg.Obs.StageStart(obs.StageProfile)
		ap, err := sim.ProfileAlone(on.cfg.Sim, p, r.cfg.ProfileCycles)
		stop()
		return ap, 0, err
	})
	if err != nil {
		return sim.AloneProfile{}, err
	}
	return e.val, nil
}

// aloneVectors resolves the profile vectors for a mix on on.
func (r *Runner) aloneVectors(on *system, mix workload.Mix) (apcAlone, api, ipcAlone []float64, err error) {
	n := len(mix.Benchmarks)
	apcAlone = make([]float64, n)
	api = make([]float64, n)
	ipcAlone = make([]float64, n)
	for i, name := range mix.Benchmarks {
		ap, err := r.aloneOn(on, name)
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
// epochs of Epoch cycles when it is online. A Runner's MixRun is shared with
// its result cache and every other caller of the cell: never modify one.
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

// preparedMix is the shared prefix of every measurement on one mix on one
// system: its immutable profiles plus the checkpoint of its warmed state.
// RunCells prepares each once and builds a new simulated system from the
// checkpoint per cell, so the functional warmup is paid once per mix instead
// of once per cell.
type preparedMix struct {
	on    *system
	profs []workload.Profile
	cp    *sim.Checkpoint
}

// prepareMix builds the mix's simulated system on on, runs the functional
// warmup, and snapshots the warmed state; the warmed system is dropped.
func (r *Runner) prepareMix(on *system, mix workload.Mix) (*preparedMix, error) {
	profs, err := mix.Profiles()
	if err != nil {
		return nil, err
	}
	sys, err := sim.New(on.cfg.Sim, profs)
	if err != nil {
		return nil, err
	}
	stop := r.cfg.Obs.StageStart(obs.StageWarmup)
	sys.Warmup()
	stop()
	cp, err := sys.Snapshot()
	if err != nil {
		return nil, err
	}
	return &preparedMix{on: on, profs: profs, cp: cp}, nil
}

// forkPrepared builds a system from p's warm checkpoint: its caches from
// their saved lines and counters, its streams from their saved states,
// everything else new. It reads only p's immutable parts, so any number of
// cells can fork one prepared mix concurrently (forked runs are
// bit-identical to cold runs; the differential tests in this package check
// it against the cold oracle).
func (r *Runner) forkPrepared(p *preparedMix) (*sim.System, error) {
	return sim.FromCheckpoint(p.on.cfg.Sim, p.profs, p.cp)
}

// measure is the one settle → mark → measure tail every cell shares: sys is
// warmed and already carries the configuration under test. The settle window
// is SettleCycles long, or an online policy's epochs, whose final estimates
// measure returns. With a collector installed the two windows are
// stage-timed, the measurement window samples the queue depth, and the
// system's kernel counters join the totals.
func (r *Runner) measure(sys *sim.System, pol policy, a policyArgs) (sim.Result, []float64, error) {
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

// runCell simulates one cell on on and evaluates all four objectives on the
// measured IPCs: a new system is built from the mix's shared warm checkpoint,
// whose base stays pinned against LRU eviction for the duration, pol installs
// the cell's controller configuration on it, tracer (nil: none) is installed
// on its controller and measure runs; the system is garbage once measured.
func (r *Runner) runCell(on *system, c GridCell, tracer func(cycle int64, app int, addr uint64, write bool)) (*MixRun, error) {
	pol, err := policyFor(c)
	if err != nil {
		return nil, err
	}
	apcAlone, api, ipcAlone, err := r.aloneVectors(on, c.Mix)
	if err != nil {
		return nil, err
	}
	p, release, err := r.acquire(on, c.Mix)
	if err != nil {
		return nil, err
	}
	defer release()
	r.cfg.Obs.Add(obs.WarmForks, 1)
	sys, err := r.forkPrepared(p)
	if err != nil {
		return nil, err
	}
	a := policyArgs{cell: c, profs: p.profs, apcAlone: apcAlone, api: api, seed: on.cfg.Seed}
	if err := pol.apply(sys, a); err != nil {
		return nil, err
	}
	sys.Controller().SetTracer(tracer)
	res, est, err := r.measure(sys, pol, a)
	if err != nil {
		return nil, err
	}
	return newMixRun(a, ipcAlone, res, est)
}

// TraceCell simulates cell c as a miss of RunMix would — its System and
// policy resolved, a fork of its mix's warm base measured — with fn observing
// every off-chip access issued in the settle and measurement windows (not in
// standalone profiling or the warmup), and returns the run. It reads no
// stored cell and stores nothing, so fn sees the accesses even of a resident
// cell, and no hit, miss, coalesced or checkpoint-hit counter moves.
func (r *Runner) TraceCell(c GridCell, fn func(cycle int64, app int, addr uint64, write bool)) (*MixRun, error) {
	on, err := r.system(c.System)
	if err != nil {
		return nil, err
	}
	return r.runCell(on, c, fn)
}

// newMixRun is the cell a.cell measured as res (and, online, est) with all
// four objectives evaluated on the measured IPCs. The run is the cell's
// master, handed out as it is, so it copies the two slices it takes from the
// cell and is never written once built.
func newMixRun(a policyArgs, ipcAlone []float64, res sim.Result, est []float64) (*MixRun, error) {
	c := a.cell
	mix := c.Mix
	mix.Benchmarks = slices.Clone(mix.Benchmarks)
	run := &MixRun{
		Mix:               mix,
		Scheme:            c.Scheme,
		Shares:            slices.Clone(c.Shares),
		Epoch:             c.Epoch,
		Epochs:            c.Epochs,
		IPCAlone:          ipcAlone,
		APCAlone:          a.apcAlone,
		EstimatedAPCAlone: est,
		API:               a.api,
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
// evaluates all four objectives. An identical cell already resolved (by any
// entry point sharing the cache) is returned shared, never to be modified, and
// a concurrent identical request joins the in-flight one; a fresh cell is
// measured from the mix's shared warm checkpoint.
func (r *Runner) RunMix(mix workload.Mix, scheme string) (*MixRun, error) {
	return r.lookup(r.own, GridCell{Mix: mix, Scheme: scheme}, true)
}

// lookup is the engine's one lookup order for a cell on on, its resolved
// System, which every entry point and every windowed study flows through: the
// cell's policy is checked against the registry, then the in-memory result
// cache, then the on-disk checkpoint store (a disk hit is promoted into the
// cache under the cell's single-flight key), then — only when simulate is set
// — a real simulation. Without simulate a cell in neither tier fails with
// errNotResident and nothing is profiled, warmed, or forked.
func (r *Runner) lookup(on *system, c GridCell, simulate bool) (*MixRun, error) {
	if _, err := policyFor(c); err != nil {
		return nil, err
	}
	var sim func() (*MixRun, error)
	if simulate {
		sim = func() (*MixRun, error) { return r.simulateCell(on, c) }
	}
	load := func() (*MixRun, []byte) { return r.cfg.Checkpoint.load(on.fp, c) }
	e, err := r.cfg.Cache.flight(cellKey(on.fp, c), r.cfg.Obs, load, sim, true)
	if err != nil {
		return nil, err
	}
	return relabel(e.val.run, c.Mix), nil
}

// relabel returns run under mix's display labels: run itself when they match,
// else a shallow copy sharing run's slices and map. Cells are content-addressed,
// so a resolved cell may carry an alias's labels (hetero-5 for the motivation
// mix); the simulation never read them.
func relabel(run *MixRun, mix workload.Mix) *MixRun {
	if run.Mix.Name == mix.Name && run.Mix.PaperRSD == mix.PaperRSD {
		return run
	}
	cp := *run
	cp.Mix.Name, cp.Mix.PaperRSD = mix.Name, mix.PaperRSD
	return &cp
}

// ResidentJSON is encodeRun of what RunMix would return for a resident cell:
// its stored bytes from memory or, promoting it, from disk — never waiting on
// a cell in flight or simulating. Any other cell fails.
func (r *Runner) ResidentJSON(c GridCell) ([]byte, error) {
	return r.residentJSON(c, r.cfg.Obs, r.cfg.Checkpoint)
}

// EncodeCell is encodeRun(run) for run, the cell c this runner resolved: the
// resident cell's stored bytes (a memory probe, uncounted), so a miss answers
// with what its hits get.
func (r *Runner) EncodeCell(c GridCell, run *MixRun) ([]byte, error) {
	if enc, err := r.residentJSON(c, nil, nil); err == nil {
		return enc, nil
	}
	return encodeRun(run)
}

// residentJSON is ResidentJSON counted on col, with store (nil: none) as the
// disk tier. An aliased mix gets a fresh encoding of the master relabeled, as
// lookup does.
func (r *Runner) residentJSON(c GridCell, col *obs.Collector, store *CheckpointStore) ([]byte, error) {
	on, err := r.system(c.System)
	if err != nil {
		return nil, err
	}
	key := cellKey(on.fp, c)
	e, err := r.cfg.Cache.flight(key, col, func() (*MixRun, []byte) { return store.load(on.fp, c) }, nil, false)
	if err != nil {
		return nil, err
	}
	if run := relabel(e.val.run, c.Mix); run != e.val.run {
		return encodeRun(run)
	}
	return r.cfg.Cache.encoding(key, e, r.cfg.Obs)
}

// encodeRun is a cell's one encoding: json.Marshal(run) — the bytes
// CheckpointStore.Save writes — plus the newline json.Encoder adds.
func encodeRun(run *MixRun) ([]byte, error) {
	enc, err := json.Marshal(run)
	return append(enc, '\n'), err
}

// simulateCell is the last step of the lookup order: a real simulation,
// persisted to the checkpoint store.
func (r *Runner) simulateCell(on *system, c GridCell) (*MixRun, error) {
	r.cfg.Faults.Sleep(faultinject.CellDelay)
	if r.cfg.Faults.Fire(faultinject.CellPanic) {
		panic(fmt.Sprintf("injected cell panic (%s/%s)", c.Mix.Name, c.Scheme))
	}
	run, err := r.runCell(on, c, nil)
	if err != nil {
		return nil, err
	}
	// A Save failure degrades the store — logged and counted there — but
	// never fails a cell that was successfully simulated.
	_ = r.cfg.Checkpoint.save(on.fp, run)
	return run, nil
}

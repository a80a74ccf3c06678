// Package bwpart is an analytical model and cycle-level simulation testbed
// for off-chip memory bandwidth partitioning in chip multiprocessors,
// reproducing Wang, Chen and Pinkston, "An Analytical Performance Model for
// Partitioning Off-Chip Memory Bandwidth" (IPDPS 2013).
//
// The package offers three layers:
//
//   - The analytical model: partitioning schemes (Equal, Proportional,
//     SquareRoot, TwoThirdsPower, PriorityAPC, PriorityAPI), closed-form
//     performance expressions, a QoS-guarantee allocator, and a numeric
//     optimizer to verify optimality. These are pure functions of
//     (APC_alone, API, B).
//
//   - The simulated CMP: out-of-order cores, private L1/L2 caches, a shared
//     memory controller with start-time-fair and strict-priority
//     enforcement, and a DDR2-style DRAM device — a from-scratch stand-in
//     for the paper's GEM5 + DRAMSim2 testbed, with 16 synthetic SPEC
//     CPU2006 workloads calibrated to the paper's Table III.
//
//   - The experiment harness: runnable reproductions of every table and
//     figure in the paper's evaluation.
//
// Quick start:
//
//	runner, _ := bwpart.NewRunner(bwpart.QuickExperiments())
//	fig1, _ := runner.Figure1()
//	fmt.Print(fig1)
package bwpart

import (
	"io"

	"bwpart/internal/core"
	"bwpart/internal/dram"
	"bwpart/internal/exper"
	"bwpart/internal/memctrl"
	"bwpart/internal/metrics"
	"bwpart/internal/obs"
	"bwpart/internal/serve"
	"bwpart/internal/sim"
	"bwpart/internal/trace"
	"bwpart/internal/workload"
)

// Analytical-model types.
type (
	// Scheme is a bandwidth partitioning scheme (see Equal, Proportional,
	// SquareRoot, TwoThirdsPower, PriorityAPC, PriorityAPI).
	Scheme = core.Scheme
	// WeightScheme derives shares from per-app weights (Equal family).
	WeightScheme = core.WeightScheme
	// PriorityScheme allocates greedily in a strict app order.
	PriorityScheme = core.PriorityScheme
	// Guarantee pins one application's IPC for QoS allocation.
	Guarantee = core.Guarantee
	// QoSAllocation is the result of a QoS-aware partitioning (Eq. 11).
	QoSAllocation = core.QoSAllocation
	// OptOptions tunes the numeric optimality checker.
	OptOptions = core.OptOptions
	// Objective identifies a system performance metric (Hsp, Wsp, IPCsum,
	// MinFairness).
	Objective = metrics.Objective
)

// Simulation types.
type (
	// SimConfig describes the simulated CMP (cores, caches, DRAM).
	SimConfig = sim.Config
	// DRAMConfig describes the DRAM geometry and timing.
	DRAMConfig = dram.Config
	// System is an assembled CMP running one application per core.
	System = sim.System
	// SimResult is a whole-system measurement window.
	SimResult = sim.Result
	// AloneProfile is a benchmark's standalone characterization.
	AloneProfile = sim.AloneProfile
	// Profile is a synthetic benchmark description.
	Profile = workload.Profile
	// Mix is a named multiprogrammed workload.
	Mix = workload.Mix
)

// Experiment types.
type (
	// ExperimentConfig sets simulation windows for experiments.
	ExperimentConfig = exper.Config
	// Runner executes the paper's experiments.
	Runner = exper.Runner
	// Table is what every study returns: formatted rows, the numbers
	// behind them (Table.Value) and note lines; String renders it.
	Table = exper.Table
	// Study is one named experiment of the figure suite (see Studies).
	Study = exper.Study
	// Table3Result and ValidationResult are the typed results behind the
	// table3 and validate studies (Table lays each out).
	Table3Result     = exper.Table3Result
	ValidationResult = exper.ValidationResult
	// MixRun is one cell's simulation measurement. A runner's MixRun is
	// shared with the result cache and every other caller of the cell:
	// read it, never modify it.
	MixRun = exper.MixRun
	// GridCell is a cell: a mix under a controller policy, with an explicit
	// share vector for the share-taking policies, epochs for the online ones,
	// on a CellSystem.
	GridCell = exper.GridCell
	// CellSystem is the simulated system a cell runs on, as edits of its
	// runner's configuration (bandwidth scale, page policy, shared L2 way
	// quota, seed); the zero value is the runner's own.
	CellSystem = exper.System
	// CheckpointStore persists finished sweep cells so an interrupted
	// RunGrid resumes instead of restarting. Install via
	// ExperimentConfig.Checkpoint.
	CheckpointStore = exper.CheckpointStore
	// ResultCache memoizes finished (config, mix, scheme) cells in memory
	// with single-flight deduplication; share one via
	// ExperimentConfig.Cache so identical cells across runners are
	// simulated at most once per process.
	// Every caller of a cell gets the one cached MixRun, which it must not
	// modify.
	ResultCache = exper.ResultCache
)

// NewCheckpointStore opens (creating if needed) a sweep checkpoint directory.
func NewCheckpointStore(dir string) (*CheckpointStore, error) {
	return exper.NewCheckpointStore(dir)
}

// NewResultCache builds an empty shared result cache.
func NewResultCache() *ResultCache { return exper.NewResultCache() }

// Run-level observability (the experiment engine's counters and timers).
type (
	// RunObserver collects the experiment engine's counters (jobs, result
	// cache, checkpoint tier, kernel work — one table in internal/obs),
	// per-stage wall time and memory-controller queue-depth statistics.
	// Install one via ExperimentConfig.Obs; the engine is its only writer,
	// callers read it through Snapshot or StartTicker.
	RunObserver = obs.Collector
	// RunSnapshot is a point-in-time, JSON-serializable copy of a
	// RunObserver's statistics.
	RunSnapshot = obs.Snapshot
	// RunTicker renders periodic progress lines (see RunObserver.StartTicker).
	RunTicker = obs.Ticker
)

// NewRunObserver builds an observer whose elapsed clock starts now.
func NewRunObserver() *RunObserver { return obs.NewCollector() }

// Serving layer: the experiment engine as a long-lived HTTP/JSON service
// with a bounded, client-fair job queue in front of one process-wide set
// of runners (shared result cache, warm bases, checkpoint tier).
type (
	// Server is a resident simulation service (see cmd/sweepd).
	Server = serve.Server
	// ServerOptions configures NewServer (experiment config — with its
	// collector, cache budget and fault injector — worker count, queue
	// depth, job timeout).
	ServerOptions = serve.Options
	// JobSnapshot is the wire state of one server job.
	JobSnapshot = serve.JobSnapshot
)

// NewServer builds a serving stack and starts its worker pool.
func NewServer(opts ServerOptions) (*Server, error) { return serve.New(opts) }

// ParallelismEnv is the environment variable that overrides the experiment
// engine's default worker count (ExperimentConfig.Parallelism wins).
const ParallelismEnv = exper.ParallelismEnv

// Objective constants (the paper's four optimization targets).
const (
	ObjectiveHsp         = metrics.ObjectiveHsp
	ObjectiveMinFairness = metrics.ObjectiveMinFairness
	ObjectiveWsp         = metrics.ObjectiveWsp
	ObjectiveIPCSum      = metrics.ObjectiveIPCSum
)

// NoPartitioning names the FCFS baseline configuration in experiments.
const NoPartitioning = exper.NoPartitioning

// Scheme constructors.
func Equal() *WeightScheme          { return core.Equal() }
func Proportional() *WeightScheme   { return core.Proportional() }
func SquareRoot() *WeightScheme     { return core.SquareRoot() }
func TwoThirdsPower() *WeightScheme { return core.TwoThirdsPower() }
func PriorityAPC() *PriorityScheme  { return core.PriorityAPC() }
func PriorityAPI() *PriorityScheme  { return core.PriorityAPI() }

// Schemes returns all six managed schemes in the paper's Figure 2 order.
func Schemes() []Scheme { return core.Schemes() }

// SchemeByName resolves a scheme name as printed by Scheme.Name.
func SchemeByName(name string) (Scheme, error) { return core.ByName(name) }

// OptimalFor returns the model-derived optimal scheme for an objective.
func OptimalFor(obj Objective) (Scheme, error) { return core.OptimalFor(obj) }

// Objectives returns the paper's four objectives in presentation order.
func Objectives() []Objective { return metrics.Objectives() }

// Model functions.

// PredictIPC applies Eq. 1: IPC_i = APC_i / API_i.
func PredictIPC(apcShared, api []float64) ([]float64, error) {
	return core.PredictIPC(apcShared, api)
}

// Evaluate predicts an objective's value under a scheme's allocation.
func Evaluate(obj Objective, s Scheme, apcAlone, api []float64, b float64) (float64, error) {
	return core.Evaluate(obj, s, apcAlone, api, b)
}

// MaxHsp is the paper's Eq. 4 closed form.
func MaxHsp(apcAlone []float64, b float64) (float64, error) { return core.MaxHsp(apcAlone, b) }

// SqrtWsp is the (corrected) Eq. 6 closed form.
func SqrtWsp(apcAlone []float64, b float64) (float64, error) { return core.SqrtWsp(apcAlone, b) }

// PropHspWsp is the paper's Eq. 8 closed form.
func PropHspWsp(apcAlone []float64, b float64) (float64, error) { return core.PropHspWsp(apcAlone, b) }

// QoSAllocate reserves bandwidth for guarantees and splits the rest with a
// scheme (Eq. 11).
func QoSAllocate(s Scheme, apcAlone, api []float64, b float64, gs []Guarantee) (*QoSAllocation, error) {
	return core.QoSAllocate(s, apcAlone, api, b, gs)
}

// MaximizeObjective numerically searches for the best feasible allocation.
func MaximizeObjective(obj Objective, apcAlone, api []float64, b float64, opt OptOptions) ([]float64, float64, error) {
	return core.MaximizeObjective(obj, apcAlone, api, b, opt)
}

// Metric functions (shared and alone are IPC vectors).
func Hsp(shared, alone []float64) (float64, error)         { return metrics.Hsp(shared, alone) }
func Wsp(shared, alone []float64) (float64, error)         { return metrics.Wsp(shared, alone) }
func IPCSum(shared []float64) (float64, error)             { return metrics.IPCSum(shared) }
func MinFairness(shared, alone []float64) (float64, error) { return metrics.MinFairness(shared, alone) }

// Simulation entry points.

// DefaultSimConfig returns the paper's baseline system (Table II).
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// DDR2_400 returns the paper's DDR2-400 memory system configuration.
func DDR2_400() DRAMConfig { return dram.DDR2_400() }

// NewSystem assembles a CMP running one application per core.
func NewSystem(cfg SimConfig, profs []Profile) (*System, error) { return sim.New(cfg, profs) }

// ProfileAlone characterizes one benchmark running alone.
func ProfileAlone(cfg SimConfig, p Profile, cycles int64) (AloneProfile, error) {
	return sim.ProfileAlone(cfg, p, cycles)
}

// Workload catalog.

// Benchmarks returns the 16 calibrated SPEC CPU2006 profiles (Table III).
func Benchmarks() []Profile { return workload.All() }

// BenchmarkByName resolves one benchmark profile.
func BenchmarkByName(name string) (Profile, error) { return workload.ByName(name) }

// HeteroMixes / HomoMixes return the paper's Table IV workloads.
func HeteroMixes() []Mix { return workload.HeteroMixes() }
func HomoMixes() []Mix   { return workload.HomoMixes() }

// MixByName resolves any named workload mix.
func MixByName(name string) (Mix, error) { return workload.MixByName(name) }

// Experiment entry points.

// DefaultExperiments returns the full-fidelity experiment configuration.
func DefaultExperiments() ExperimentConfig { return exper.Default() }

// QuickExperiments returns a faster configuration for exploration.
func QuickExperiments() ExperimentConfig { return exper.Quick() }

// NewRunner builds an experiment runner.
func NewRunner(cfg ExperimentConfig) (*Runner, error) { return exper.NewRunner(cfg) }

// Table4 computes the workload-construction table (no simulation needed).
func Table4() (*Table, error) { return exper.Table4() }

// Studies lists the figure suite (cmd/figures -exp all) in report order.
func Studies() []Study { return exper.Studies() }

// Heuristic memory schedulers from the paper's related work (install on a
// System via sys.Controller().SetScheduler).
type (
	// MemScheduler is the memory controller scheduling-policy interface.
	// It is sealed: the policies constructed below are its only
	// implementations.
	MemScheduler = memctrl.Scheduler
	// STFM is stall-time fair memory scheduling (Mutlu & Moscibroda '07).
	STFM = memctrl.STFM
	// ATLAS is least-attained-service scheduling (Kim et al. '10).
	ATLAS = memctrl.ATLAS
	// TCM is thread-cluster memory scheduling (Kim et al. '10).
	TCM = memctrl.TCM
	// PARBS is parallelism-aware batch scheduling (Mutlu & Moscibroda '08).
	PARBS = memctrl.PARBS
)

// NewSTFM builds a stall-time fair scheduler (alpha >= 1, paper value 1.10).
func NewSTFM(numApps int, alpha float64) (*STFM, error) { return memctrl.NewSTFM(numApps, alpha) }

// NewATLAS builds a least-attained-service scheduler.
func NewATLAS(numApps int, quantumCycles int64, decay float64) (*ATLAS, error) {
	return memctrl.NewATLAS(numApps, quantumCycles, decay)
}

// NewTCM builds a thread-cluster scheduler.
func NewTCM(numApps int, clusterQuantum, shuffleQuantum int64, latencyShare float64, seed int64) (*TCM, error) {
	return memctrl.NewTCM(numApps, clusterQuantum, shuffleQuantum, latencyShare, seed)
}

// NewPARBS builds a batch scheduler with the given per-app marking cap.
func NewPARBS(numApps, markingCap int) (*PARBS, error) { return memctrl.NewPARBS(numApps, markingCap) }

// Alternative enforcement mechanisms.
type (
	// BudgetThrottle enforces shares with MemGuard-style per-period access
	// budgets instead of virtual-time tags.
	BudgetThrottle = memctrl.BudgetThrottle
	// WriteDrain wraps any scheduler with read-priority write buffering
	// (Virtual Write Queue-style burst draining).
	WriteDrain = memctrl.WriteDrain
)

// NewBudgetThrottle builds the budget-based enforcement for a share vector
// and replenishment period.
func NewBudgetThrottle(shares []float64, periodCycles int64) (*BudgetThrottle, error) {
	return memctrl.NewBudgetThrottle(shares, periodCycles)
}

// NewWriteDrain wraps inner with write buffering (drain burst starts at
// highWatermark queued writes, stops at drainTo).
func NewWriteDrain(inner MemScheduler, highWatermark, drainTo int) (*WriteDrain, error) {
	return memctrl.NewWriteDrain(inner, highWatermark, drainTo)
}

// DRAM energy model (DRAMSim2-style current-based estimate).
type (
	// PowerConfig holds per-operation DRAM energy parameters.
	PowerConfig = dram.PowerConfig
	// DRAMEnergy is an energy breakdown in nanojoules.
	DRAMEnergy = dram.Energy
)

// DefaultPowerConfig returns DDR2-class energy parameters.
func DefaultPowerConfig() PowerConfig { return dram.DefaultPowerConfig() }

// DDR3_1600 returns a DDR3-1600-class memory configuration (12.8 GB/s).
func DDR3_1600() DRAMConfig { return dram.DDR3_1600() }

// AllocationDistance returns the total-variation distance between two
// bandwidth allocations' shapes, in [0,1] (Sec. III-F's "closeness to the
// optimal scheme", made quantitative).
func AllocationDistance(a, b []float64) (float64, error) { return core.AllocationDistance(a, b) }

// Phased workloads (program phase changes; paper Sec. IV-C).
type (
	// WorkloadPhase is one behavioral phase (profile + duration).
	WorkloadPhase = workload.Phase
	// PhasedGenerator cycles through phases; implements the core's
	// DynamicStream so ILP/MLP follow the active phase.
	PhasedGenerator = workload.PhasedGenerator
	// AppSpec describes a custom application for NewSystemFromSpecs.
	AppSpec = sim.AppSpec
)

// NewPhasedGenerator builds a phased workload in application slot app.
func NewPhasedGenerator(phases []WorkloadPhase, app int, seed int64) (*PhasedGenerator, error) {
	return workload.NewPhasedGenerator(phases, app, seed)
}

// NewSystemFromSpecs assembles a CMP from explicit application specs
// (phased or custom streams).
func NewSystemFromSpecs(cfg SimConfig, specs []AppSpec) (*System, error) {
	return sim.NewFromSpecs(cfg, specs)
}

// Off-chip access traces.
type (
	// TraceRecord is one off-chip access.
	TraceRecord = trace.Record
	// TraceWriter streams records to an io.Writer; a tracer passed to
	// Runner.TraceCell feeds it every off-chip access of one cell's run.
	TraceWriter = trace.Writer
	// TraceReader decodes a recorded trace.
	TraceReader = trace.Reader
	// TraceSummary aggregates per-app trace statistics.
	TraceSummary = trace.Summary
)

// NewTraceWriter wraps w for trace recording.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// NewTraceReader wraps r for trace decoding.
func NewTraceReader(r io.Reader) *TraceReader { return trace.NewReader(r) }

// SummarizeTrace computes per-app statistics over a recorded trace.
func SummarizeTrace(r io.Reader) (*TraceSummary, error) { return trace.Summarize(r) }

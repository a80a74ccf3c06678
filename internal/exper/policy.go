package exper

import (
	"fmt"

	"bwpart/internal/core"
	"bwpart/internal/mathx"
	"bwpart/internal/memctrl"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// policy is one entry of the registry a cell's controller configuration is
// resolved from. apply installs it on a warmed system; a policy with shares
// set enforces the cell's explicit share vector, and only such cells carry
// one. A policy with settle set is online: settle replaces the cell's settle
// window (it runs the cell's epochs and returns the final APC_alone
// estimates), and only such cells carry an epoch length and count.
type policy struct {
	shares bool
	apply  func(sys *sim.System, a policyArgs) error
	settle func(sys *sim.System, a policyArgs) ([]float64, error)
}

// policyArgs is what a policy may read: the cell (its share vector and
// epochs), the mix's profiles and standalone profile vectors, and the
// runner's seed.
type policyArgs struct {
	cell          GridCell
	profs         []workload.Profile
	apcAlone, api []float64
	seed          int64
}

// onlinePrefix+scheme is scheme as the paper deploys it: APC_alone is never
// measured by running apps alone; it is estimated every epoch from the three
// online counters (N_accesses, T_cyc,shared, T_cyc,interference, Sec. IV-C)
// and the partitioning is refreshed at every epoch boundary (runEpochs). Its
// cell names the epoch length and count (GridCell.Epoch, Epochs) and is
// memoized, checkpointed and forked from the mix's warm base like any other.
// Its run's EstimatedAPCAlone holds the final smoothed estimates, APCAlone
// the run-alone oracle they are judged against (MixRun.EstimatorError), and
// Values the objectives over the measurement window under the converged
// partitioning.
const onlinePrefix = "online:"

// installs is a policy's apply step that installs a fresh scheduler from mk
// per cell (the heuristics carry state, so no two runs may share one).
func installs[S memctrl.Scheduler](mk func(numApps int, a policyArgs) (S, error)) func(*sim.System, policyArgs) error {
	return func(sys *sim.System, a policyArgs) error {
		s, err := mk(sys.NumApps(), a)
		if err != nil {
			return err
		}
		return sys.Controller().SetScheduler(s)
	}
}

// policies is the one name resolver of the engine: RunMix, RunGrid (and so
// sweep -schemes and sweepd) and every study's cells select from it.
var policies = func() map[string]policy {
	m := map[string]policy{
		NoPartitioning: {apply: func(sys *sim.System, _ policyArgs) error { return sys.ApplyNoPartitioning() }},
		"fr-fcfs":      {apply: installs(func(int, policyArgs) (*memctrl.FRFCFS, error) { return memctrl.NewFRFCFS(8), nil })},
		"stfm":         {apply: installs(func(n int, _ policyArgs) (*memctrl.STFM, error) { return memctrl.NewSTFM(n, 1.10) })},
		"parbs":        {apply: installs(func(n int, _ policyArgs) (*memctrl.PARBS, error) { return memctrl.NewPARBS(n, 5) })},
		"atlas": {apply: installs(func(n int, _ policyArgs) (*memctrl.ATLAS, error) {
			return memctrl.NewATLAS(n, 100_000, 0.875)
		})},
		"tcm": {apply: installs(func(n int, a policyArgs) (*memctrl.TCM, error) {
			return memctrl.NewTCM(n, 100_000, 8_000, 0.25, a.seed)
		})},
		"start-time-fair": {shares: true, apply: func(sys *sim.System, a policyArgs) error { return sys.ApplyShares(a.cell.Shares) }},
		"budget": {shares: true, apply: installs(func(_ int, a policyArgs) (*memctrl.BudgetThrottle, error) {
			return memctrl.NewBudgetThrottle(a.cell.Shares, 20_000)
		})},
	}
	for _, s := range core.Schemes() {
		m[s.Name()] = policy{apply: func(sys *sim.System, a policyArgs) error { return sys.ApplyScheme(s, a.apcAlone, a.api) }}
		m[onlinePrefix+s.Name()] = policy{
			apply:  func(sys *sim.System, _ policyArgs) error { return sys.ApplyNoPartitioning() },
			settle: func(sys *sim.System, a policyArgs) ([]float64, error) { return runEpochs(sys, s, a) },
		}
	}
	return m
}()

// policyFor resolves a cell's policy: a registered name, with a share vector
// exactly when the policy takes one, holding one positive finite share per
// application, and with epochs exactly when the policy is online: a positive
// length and at least two of them.
func policyFor(c GridCell) (policy, error) {
	p, ok := policies[c.Scheme]
	switch {
	case !ok:
		return policy{}, fmt.Errorf("exper: unknown policy %q", c.Scheme)
	case p.settle == nil && (c.Epoch != 0 || c.Epochs != 0):
		return policy{}, fmt.Errorf("exper: policy %s takes no epochs", c.Scheme)
	case p.settle != nil && (c.Epoch <= 0 || c.Epochs < 2):
		return policy{}, fmt.Errorf("exper: online policy %s needs a positive epoch length and at least 2 epochs, got %d x %d cycles", c.Scheme, c.Epochs, c.Epoch)
	case !p.shares && len(c.Shares) > 0:
		return policy{}, fmt.Errorf("exper: policy %s takes no share vector", c.Scheme)
	case p.shares && len(c.Shares) == 0:
		return policy{}, fmt.Errorf("exper: policy %s needs a share vector", c.Scheme)
	case p.shares && (len(c.Shares) != len(c.Mix.Benchmarks) || !mathx.AllPositive(c.Shares)):
		return policy{}, fmt.Errorf("exper: policy %s needs one positive finite share per application, got %v", c.Scheme, c.Shares)
	}
	return p, nil
}

// CheckPolicy reports whether a request that names only a policy — RunMix,
// RunGrid, POST /v1/mix — may select name: NoPartitioning, a core scheme, a
// heuristic scheduler or fr-fcfs. The share-taking policies need a cell with
// a share vector, the online ones a cell with epochs, and are rejected.
func CheckPolicy(name string) error {
	_, err := policyFor(GridCell{Scheme: name})
	return err
}

package exper

import (
	"errors"
	"fmt"
	"strings"

	"bwpart/internal/core"
	"bwpart/internal/memctrl"
	"bwpart/internal/metrics"
	"bwpart/internal/sim"
	"bwpart/internal/workload"
)

// SharedL2Row records one L2 way-partition point.
type SharedL2Row struct {
	Quota []int
	// APIShared per app under this capacity partition, measured with
	// equal bandwidth shares so every application makes progress (an
	// unmanaged FCFS baseline can starve the latency-sensitive app
	// outright, leaving nothing to measure).
	APIShared []float64
	// APIUnderPartitioning re-measures API with proportional bandwidth
	// partitioning active: the footnote's invariance claim says it should
	// match APIShared.
	APIUnderPartitioning []float64
	// HspPartitioned is the Hsp achieved when the model (fed the measured
	// API_shared and APC values) drives proportional partitioning on this
	// topology.
	HspPartitioned float64
	HspBaseline    float64
}

// SharedL2Result is the shared-L2 extension study (paper footnote 1): the
// model extends to a way-partitioned shared L2 by replacing API with
// API_shared, which depends on the capacity share but not on bandwidth
// partitioning.
type SharedL2Result struct {
	Mix  workload.Mix
	Rows []SharedL2Row
}

// SharedL2Study sweeps L2 way partitions for a mix and verifies the two
// claims behind the paper's footnote: API varies with capacity share, and
// is invariant to the bandwidth partitioning applied on top.
func (r *Runner) SharedL2Study(mix workload.Mix, quotas [][]int) (*SharedL2Result, error) {
	if len(quotas) == 0 {
		return nil, errors.New("exper: no quota points")
	}
	profs, err := mix.Profiles()
	if err != nil {
		return nil, err
	}
	out := &SharedL2Result{Mix: mix}
	for _, quota := range quotas {
		if len(quota) != len(profs) {
			return nil, fmt.Errorf("exper: quota %v for %d apps", quota, len(profs))
		}
		row := SharedL2Row{Quota: append([]int(nil), quota...)}

		// Phase 1: measure API_shared under equal bandwidth shares.
		sysCfg := r.sharedL2Config(quota)
		base, err := r.runSharedOnce(sysCfg, profs, nil, nil)
		if err != nil {
			return nil, err
		}
		row.APIShared = base.APIs()
		baselineIPC := base.IPCs()

		// Phase 2: apply proportional bandwidth partitioning fed by the
		// measured shared-topology characteristics, and re-measure API.
		apc := base.APCs()
		api := base.APIs()
		for i := range apc {
			if apc[i] <= 0 {
				apc[i] = 1e-6
			}
			if api[i] <= 0 {
				api[i] = 1e-6
			}
		}
		part, err := r.runSharedOnce(sysCfg, profs, apc, api)
		if err != nil {
			return nil, err
		}
		row.APIUnderPartitioning = part.APIs()

		// Hsp of the partitioned run vs the FCFS baseline, using the
		// FCFS run's per-app IPC as a common reference (relative Hsp
		// comparison only needs a consistent normalizer). An app fully
		// starved by the baseline gets a floor so the ratio stays finite.
		ref := make([]float64, len(baselineIPC))
		for i, v := range baselineIPC {
			if v < 1e-6 {
				v = 1e-6
			}
			ref[i] = v
		}
		hspPart, err := metrics.Hsp(part.IPCs(), ref)
		if err != nil {
			return nil, err
		}
		hspBase, err := metrics.Hsp(baselineIPC, ref)
		if err != nil {
			return nil, err
		}
		row.HspPartitioned = hspPart
		row.HspBaseline = hspBase
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

func (r *Runner) sharedL2Config(quota []int) sim.Config {
	cfg := r.cfg.Sim
	cfg.SharedL2 = true
	cfg.L2WayQuota = quota
	// A 512 KB shared L2: small enough that a single way (64 KB) cannot
	// hold an application's L2-resident working set, so the capacity share
	// visibly moves API — the effect the footnote describes.
	cfg.L2.SizeBytes = 512 << 10
	return cfg
}

// runSharedOnce runs the shared-L2 system; when apc/api are non-nil it
// applies square-root partitioning derived from them, otherwise equal
// bandwidth shares (a progress-guaranteeing baseline for measuring API).
func (r *Runner) runSharedOnce(cfg sim.Config, profs []workload.Profile, apc, api []float64) (sim.Result, error) {
	return r.runRaw(cfg, profs, func(sys *sim.System) error {
		if apc != nil {
			return sys.ApplyScheme(core.Proportional(), apc, api)
		}
		shares := make([]float64, len(profs))
		for i := range shares {
			shares[i] = 1 / float64(len(profs))
		}
		stf, err := memctrl.NewStartTimeFair(shares)
		if err != nil {
			return err
		}
		return sys.Controller().SetScheduler(stf)
	})
}

// APIInvariance returns the max relative deviation of API between the equal-share
// and partitioned runs across all rows and apps (the footnote's claim is
// that this stays small).
func (s *SharedL2Result) APIInvariance() float64 {
	worst := 0.0
	for _, row := range s.Rows {
		for i := range row.APIShared {
			if row.APIShared[i] <= 0 {
				continue
			}
			d := (row.APIUnderPartitioning[i] - row.APIShared[i]) / row.APIShared[i]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Render prints the sweep.
func (s *SharedL2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shared-L2 extension (footnote 1) on %s: API vs way partition\n", s.Mix.Name)
	t := newTable("quota", "app", "API (equal shares)", "API (partitioned)", "Hsp part/base")
	for _, row := range s.Rows {
		for i, name := range s.Mix.Benchmarks {
			first := ""
			ratio := ""
			if i == 0 {
				first = fmt.Sprintf("%v", row.Quota)
				ratio = fmt.Sprintf("%.3f", row.HspPartitioned/row.HspBaseline)
			}
			t.addRow(first, name, fmt.Sprintf("%.5f", row.APIShared[i]),
				fmt.Sprintf("%.5f", row.APIUnderPartitioning[i]), ratio)
		}
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "max API deviation under bandwidth partitioning: %.1f%%\n", 100*s.APIInvariance())
	return b.String()
}

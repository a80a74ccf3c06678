package exper

import (
	"fmt"

	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// EnergyStudy measures DRAM energy under every configuration (baseline +
// six schemes) for one mix, one row per scheme: window energy in mJ,
// dynamic energy per transferred bit, IPC sum, and IPC sum per mJ (the
// energy-efficiency figure of merit). Bandwidth partitioning does not
// change total service much (B is roughly constant — the paper's premise),
// so total energy is nearly scheme-invariant while *useful work per joule*
// follows the throughput metric: an energy angle on the same conclusions.
func (r *Runner) EnergyStudy(mix workload.Mix) (*Table, error) {
	configs := append([]string{NoPartitioning}, Figure2Schemes()...)
	runs, err := r.RunGrid(r.baseCtx(), []workload.Mix{mix}, configs)
	if err != nil {
		return nil, err
	}
	t := newTable(fmt.Sprintf("DRAM energy study on %s (window energy, default DDR2 power parameters)", mix.Name),
		"scheme", "energy (mJ)", "dyn pJ/bit", "IPCsum", "IPCsum per mJ")
	for i, scheme := range configs {
		run := runs[i]
		totalMJ := run.Result.Energy.TotalNJ() / 1e6
		sum := run.Values[metrics.ObjectiveIPCSum]
		perMJ := 0.0
		if totalMJ > 0 {
			perMJ = sum / totalMJ
		}
		t.add(txt(scheme), numf("%.3f", totalMJ), numf("%.1f", run.Result.EnergyPerBitPJ), f3(sum), f3(perMJ))
	}
	return t, nil
}

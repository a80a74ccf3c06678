package exper

import (
	"fmt"
	"strings"

	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// EnergyRow records one scheme's DRAM energy economics on a mix.
type EnergyRow struct {
	Scheme string
	// TotalMJ is the DRAM energy over the measurement window, millijoules.
	TotalMJ float64
	// DynamicPJPerBit is the dynamic energy per transferred bit.
	DynamicPJPerBit float64
	// IPCSumPerMJ is throughput per unit energy: the energy-efficiency
	// figure of merit.
	IPCSumPerMJ float64
	IPCSum      float64
}

// EnergyResult is the per-scheme energy study for one mix.
type EnergyResult struct {
	Mix  workload.Mix
	Rows []EnergyRow
}

// EnergyStudy measures DRAM energy under every configuration (baseline +
// six schemes) for one mix. Bandwidth partitioning does not change total
// service much (B is roughly constant — the paper's premise), so total
// energy is nearly scheme-invariant while *useful work per joule* follows
// the throughput metric: an energy angle on the same conclusions.
func (r *Runner) EnergyStudy(mix workload.Mix) (*EnergyResult, error) {
	out := &EnergyResult{Mix: mix}
	configs := append([]string{NoPartitioning}, Figure2Schemes()...)
	runs, err := r.RunGrid(r.baseCtx(), []workload.Mix{mix}, configs)
	if err != nil {
		return nil, err
	}
	for i, scheme := range configs {
		run := runs[i]
		totalMJ := run.Result.Energy.TotalNJ() / 1e6
		row := EnergyRow{
			Scheme:          scheme,
			TotalMJ:         totalMJ,
			DynamicPJPerBit: run.Result.EnergyPerBitPJ,
			IPCSum:          run.Values[metrics.ObjectiveIPCSum],
		}
		if totalMJ > 0 {
			row.IPCSumPerMJ = row.IPCSum / totalMJ
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render prints the energy table.
func (e *EnergyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DRAM energy study on %s (window energy, default DDR2 power parameters)\n", e.Mix.Name)
	t := newTable("scheme", "energy (mJ)", "dyn pJ/bit", "IPCsum", "IPCsum per mJ")
	for _, row := range e.Rows {
		t.addRow(row.Scheme, fmt.Sprintf("%.3f", row.TotalMJ),
			fmt.Sprintf("%.1f", row.DynamicPJPerBit), f3(row.IPCSum), f3(row.IPCSumPerMJ))
	}
	b.WriteString(t.String())
	return b.String()
}

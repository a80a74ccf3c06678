package exper

import (
	"bwpart/internal/core"
	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// ValidationRow compares, for one (mix, scheme, objective), the analytical
// model's prediction against the simulator's measurement. B for the
// prediction is the throughput the simulated system actually sustained, so
// the comparison isolates the model's allocation logic from utilization
// effects (the paper's "B is constant" assumption).
type ValidationRow struct {
	Mix       string
	Scheme    string
	Objective metrics.Objective
	Predicted float64
	Measured  float64
}

// RelError returns |predicted-measured|/measured.
func (v ValidationRow) RelError() float64 {
	d := v.Predicted - v.Measured
	if d < 0 {
		d = -d
	}
	if v.Measured == 0 {
		return 0
	}
	return d / v.Measured
}

// ValidationResult aggregates model-vs-simulation comparisons. It stays a
// typed result because the benchmark harness reads its relative errors.
type ValidationResult struct {
	Rows []ValidationRow
}

// ValidateModel runs every scheme on the given mixes — fanned out across
// the worker pool — and compares the model-predicted objective values with
// the measured ones.
func (r *Runner) ValidateModel(mixes []workload.Mix) (*ValidationResult, error) {
	runs, err := r.RunGrid(r.baseCtx(), mixes, Figure2Schemes())
	if err != nil {
		return nil, err
	}
	out := &ValidationResult{}
	idx := 0
	for _, mix := range mixes {
		apcAlone, api, _, err := r.aloneVectors(r.own, mix)
		if err != nil {
			return nil, err
		}
		for _, schemeName := range Figure2Schemes() {
			run := runs[idx]
			idx++
			sch, err := core.ByName(schemeName)
			if err != nil {
				return nil, err
			}
			b := run.Result.TotalAPC
			for _, obj := range metrics.Objectives() {
				pred, err := core.Evaluate(obj, sch, apcAlone, api, b)
				if err != nil {
					return nil, err
				}
				out.Rows = append(out.Rows, ValidationRow{
					Mix:       mix.Name,
					Scheme:    schemeName,
					Objective: obj,
					Predicted: pred,
					Measured:  run.Values[obj],
				})
			}
		}
	}
	return out, nil
}

// MeanRelError returns the mean relative prediction error over all rows.
func (v *ValidationResult) MeanRelError() float64 {
	if len(v.Rows) == 0 {
		return 0
	}
	var sum float64
	for _, row := range v.Rows {
		sum += row.RelError()
	}
	return sum / float64(len(v.Rows))
}

// Table lays out the comparison, one row per (mix, scheme, objective) keyed
// "mix/scheme/objective"; "rel err" holds the fraction.
func (v *ValidationResult) Table() *Table {
	t := newTable("Model validation: predicted vs measured objective values",
		"mix", "scheme", "objective", "predicted", "measured", "rel err")
	for _, row := range v.Rows {
		t.addKeyed(row.Mix+"/"+row.Scheme+"/"+row.Objective.String(),
			txt(row.Mix), txt(row.Scheme), txt(row.Objective.String()),
			f3(row.Predicted), f3(row.Measured), pct(row.RelError()))
	}
	t.note("mean relative error: %.1f%%", 100*v.MeanRelError())
	return t
}

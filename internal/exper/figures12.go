package exper

import (
	"fmt"
	"strings"

	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// Figure1Result reproduces the motivation figure: four objectives under
// five partitioning schemes on the libquantum-milc-gromacs-gobmk workload,
// normalized to No_partitioning.
type Figure1Result struct {
	Mix workload.Mix
	// Normalized[scheme][objective] = value / value(No_partitioning).
	Normalized map[string]map[metrics.Objective]float64
	Baseline   map[metrics.Objective]float64
}

// Figure1 runs the motivation experiment.
func (r *Runner) Figure1() (*Figure1Result, error) {
	mix := workload.MotivationMix()
	runs, err := r.RunGrid(r.baseCtx(), []workload.Mix{mix}, append([]string{NoPartitioning}, Figure1Schemes()...))
	if err != nil {
		return nil, err
	}
	base := runs[0]
	out := &Figure1Result{
		Mix:        mix,
		Normalized: make(map[string]map[metrics.Objective]float64),
		Baseline:   base.Values,
	}
	for i, scheme := range Figure1Schemes() {
		out.Normalized[scheme] = normalizedTo(runs[1+i], base)
	}
	return out, nil
}

// normalizedTo divides each of run's objective values by base's.
func normalizedTo(run, base *MixRun) map[metrics.Objective]float64 {
	norm := make(map[metrics.Objective]float64, 4)
	for _, obj := range metrics.Objectives() {
		norm[obj] = run.Values[obj] / base.Values[obj]
	}
	return norm
}

// Render prints the figure's bar groups as a table.
func (f *Figure1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: normalized performance to No_partitioning (workload: %s)\n",
		strings.Join(f.Mix.Benchmarks, "-"))
	t := newTable("scheme", "Hsp", "MinFairness", "IPCsum", "Wsp")
	for _, s := range Figure1Schemes() {
		n := f.Normalized[s]
		t.addRow(s, f3(n[metrics.ObjectiveHsp]), f3(n[metrics.ObjectiveMinFairness]),
			f3(n[metrics.ObjectiveIPCSum]), f3(n[metrics.ObjectiveWsp]))
	}
	b.WriteString(t.String())
	return b.String()
}

// BestSchemeFor returns the scheme with the highest normalized value for an
// objective (what the figure visually argues).
func (f *Figure1Result) BestSchemeFor(obj metrics.Objective) string {
	best, bestV := "", 0.0
	for s, n := range f.Normalized {
		if n[obj] > bestV {
			best, bestV = s, n[obj]
		}
	}
	return best
}

// Figure2Result reproduces the main evaluation: four objectives, six
// schemes, seven heterogeneous and seven homogeneous workloads, everything
// normalized to No_partitioning; plus per-group averages.
type Figure2Result struct {
	// Normalized[mixName][scheme][objective]
	Normalized map[string]map[string]map[metrics.Objective]float64
	HeteroAvg  map[string]map[metrics.Objective]float64
	HomoAvg    map[string]map[metrics.Objective]float64
}

// Figure2 runs the full evaluation sweep (14 mixes x 7 configurations) as
// one grid.
func (r *Runner) Figure2() (*Figure2Result, error) {
	mixes, schemes := workload.AllMixes(), Figure2Schemes()
	width := 1 + len(schemes)
	runs, err := r.RunGrid(r.baseCtx(), mixes, append([]string{NoPartitioning}, schemes...))
	if err != nil {
		return nil, err
	}
	out := &Figure2Result{
		Normalized: make(map[string]map[string]map[metrics.Objective]float64),
		HeteroAvg:  newAvgMap(),
		HomoAvg:    newAvgMap(),
	}
	heteroN, homoN := 0, 0
	for mi, mix := range mixes {
		row := runs[mi*width : (mi+1)*width]
		perScheme := make(map[string]map[metrics.Objective]float64)
		for si, scheme := range schemes {
			perScheme[scheme] = normalizedTo(row[1+si], row[0])
		}
		out.Normalized[mix.Name] = perScheme
		if mix.Heterogeneous() {
			heteroN++
			accumulate(out.HeteroAvg, perScheme)
		} else {
			homoN++
			accumulate(out.HomoAvg, perScheme)
		}
	}
	scale(out.HeteroAvg, heteroN)
	scale(out.HomoAvg, homoN)
	return out, nil
}

func newAvgMap() map[string]map[metrics.Objective]float64 {
	m := make(map[string]map[metrics.Objective]float64)
	for _, s := range Figure2Schemes() {
		m[s] = make(map[metrics.Objective]float64, 4)
	}
	return m
}

func accumulate(dst, src map[string]map[metrics.Objective]float64) {
	for s, vals := range src {
		for obj, v := range vals {
			dst[s][obj] += v
		}
	}
}

func scale(m map[string]map[metrics.Objective]float64, n int) {
	if n == 0 {
		return
	}
	for _, vals := range m {
		for obj := range vals {
			vals[obj] /= float64(n)
		}
	}
}

// Render prints the four sub-figures (a)-(d) with per-workload bars and the
// hetero/homo averages, mirroring the paper's layout.
func (f *Figure2Result) Render() string {
	var b strings.Builder
	sub := []struct {
		label string
		obj   metrics.Objective
	}{
		{"(a) harmonic weighted speedup", metrics.ObjectiveHsp},
		{"(b) minimum fairness", metrics.ObjectiveMinFairness},
		{"(c) weighted speedup", metrics.ObjectiveWsp},
		{"(d) sum of IPCs", metrics.ObjectiveIPCSum},
	}
	mixOrder := append(workload.HeteroMixes(), workload.HomoMixes()...)
	for _, s := range sub {
		fmt.Fprintf(&b, "Figure 2%s: normalized to No_partitioning\n", s.label)
		t := newTable(append([]string{"workload"}, Figure2Schemes()...)...)
		for _, mix := range mixOrder {
			row := []string{mix.Name}
			for _, scheme := range Figure2Schemes() {
				row = append(row, f3(f.Normalized[mix.Name][scheme][s.obj]))
			}
			t.addRow(row...)
		}
		het := []string{"hetero-avg"}
		hom := []string{"homo-avg"}
		for _, scheme := range Figure2Schemes() {
			het = append(het, f3(f.HeteroAvg[scheme][s.obj]))
			hom = append(hom, f3(f.HomoAvg[scheme][s.obj]))
		}
		t.addRow(het...)
		t.addRow(hom...)
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// HeadlineGains returns the paper's headline comparison for an objective:
// the improvement of its optimal scheme over No_partitioning and over
// Equal, averaged across heterogeneous workloads.
func (f *Figure2Result) HeadlineGains(obj metrics.Objective) (overNoPart, overEqual float64, err error) {
	sch, err := optimalSchemeName(obj)
	if err != nil {
		return 0, 0, err
	}
	opt := f.HeteroAvg[sch][obj]
	eq := f.HeteroAvg["equal"][obj]
	if eq == 0 {
		return 0, 0, fmt.Errorf("exper: no equal baseline for %v", obj)
	}
	return opt - 1, opt/eq - 1, nil
}

func optimalSchemeName(obj metrics.Objective) (string, error) {
	switch obj {
	case metrics.ObjectiveHsp:
		return "square-root", nil
	case metrics.ObjectiveMinFairness:
		return "proportional", nil
	case metrics.ObjectiveWsp:
		return "priority-apc", nil
	case metrics.ObjectiveIPCSum:
		return "priority-api", nil
	default:
		return "", fmt.Errorf("exper: unknown objective %v", obj)
	}
}

// RenderHeadline prints the paper's summary sentence numbers.
func (f *Figure2Result) RenderHeadline() string {
	var b strings.Builder
	b.WriteString("Headline gains on heterogeneous workloads (optimal scheme vs No_partitioning / Equal):\n")
	paper := map[metrics.Objective][2]float64{
		metrics.ObjectiveHsp:         {0.203, 0.021},
		metrics.ObjectiveMinFairness: {0.498, 0.387},
		metrics.ObjectiveWsp:         {0.328, 0.076},
		metrics.ObjectiveIPCSum:      {0.642, 0.240},
	}
	t := newTable("objective", "scheme", "vs no-part", "paper", "vs equal", "paper")
	for _, obj := range metrics.Objectives() {
		sch, _ := optimalSchemeName(obj)
		a, e, err := f.HeadlineGains(obj)
		if err != nil {
			continue
		}
		p := paper[obj]
		t.addRow(obj.String(), sch,
			fmt.Sprintf("%+.1f%%", 100*a), fmt.Sprintf("%+.1f%%", 100*p[0]),
			fmt.Sprintf("%+.1f%%", 100*e), fmt.Sprintf("%+.1f%%", 100*p[1]))
	}
	b.WriteString(t.String())
	return b.String()
}

// SchemeWinsItsObjective reports whether, on the hetero average, each
// derived optimal scheme scores highest for its own objective — the
// paper's central claim.
func (f *Figure2Result) SchemeWinsItsObjective(obj metrics.Objective) (bool, error) {
	want, err := optimalSchemeName(obj)
	if err != nil {
		return false, err
	}
	bestVal, best := 0.0, ""
	for _, s := range Figure2Schemes() {
		v := f.HeteroAvg[s][obj]
		if v > bestVal {
			bestVal, best = v, s
		}
	}
	if best == want {
		return true, nil
	}
	// Allow statistical ties within 1.5%: the paper's priority pair often
	// lands within noise of each other on correlated workloads.
	return f.HeteroAvg[want][obj] >= bestVal*0.985, nil
}

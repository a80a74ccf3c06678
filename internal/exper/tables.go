package exper

import (
	"strings"

	"bwpart/internal/workload"
)

// Table3Row is one benchmark's measured characterization next to the
// paper's reference values.
type Table3Row struct {
	Name          string
	MeasuredAPKC  float64
	PaperAPKC     float64
	MeasuredAPKI  float64
	PaperAPKI     float64
	MeasuredClass workload.Intensity
	PaperClass    workload.Intensity
}

// Table3Result reproduces the benchmark classification table.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 characterizes every benchmark alone under the runner's memory
// configuration.
func (r *Runner) Table3() (*Table3Result, error) {
	if err := r.warmAloneCache(r.baseCtx(), workload.Names()); err != nil {
		return nil, err
	}
	out := &Table3Result{}
	for _, p := range workload.All() {
		ap, err := r.Alone(p.Name)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Table3Row{
			Name:          p.Name,
			MeasuredAPKC:  ap.APKC,
			PaperAPKC:     p.TableAPKC,
			MeasuredAPKI:  ap.APKI,
			PaperAPKI:     p.TableAPKI,
			MeasuredClass: workload.ClassifyAPKC(ap.APKC),
			PaperClass:    p.Class(),
		})
	}
	return out, nil
}

// Render prints the characterization table.
func (t3 *Table3Result) Render() string {
	var b strings.Builder
	b.WriteString("Table III: benchmark classification (measured vs paper)\n")
	t := newTable("name", "APKC", "APKC(paper)", "APKI", "APKI(paper)", "class", "class(paper)")
	for _, row := range t3.Rows {
		t.addRow(row.Name, f3(row.MeasuredAPKC), f3(row.PaperAPKC),
			f3(row.MeasuredAPKI), f3(row.PaperAPKI),
			row.MeasuredClass.String(), row.PaperClass.String())
	}
	b.WriteString(t.String())
	return b.String()
}

// ClassMatches counts benchmarks whose measured intensity class equals the
// paper's.
func (t3 *Table3Result) ClassMatches() int {
	n := 0
	for _, row := range t3.Rows {
		if row.MeasuredClass == row.PaperClass {
			n++
		}
	}
	return n
}

// Table4Row is one workload mix with its heterogeneity.
type Table4Row struct {
	Name          string
	Benchmarks    []string
	ReferenceRSD  float64
	PaperRSD      float64
	Heterogeneous bool
}

// Table4Result reproduces the workload construction table. It is purely
// computational (RSD of reference APC_alone values).
type Table4Result struct {
	Rows []Table4Row
}

// Table4 builds the workload table.
func Table4() (*Table4Result, error) {
	out := &Table4Result{}
	for _, m := range workload.AllMixes() {
		rsd, err := m.ReferenceRSD()
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Table4Row{
			Name:          m.Name,
			Benchmarks:    m.Benchmarks,
			ReferenceRSD:  rsd,
			PaperRSD:      m.PaperRSD,
			Heterogeneous: m.Heterogeneous(),
		})
	}
	return out, nil
}

// Render prints the workload table.
func (t4 *Table4Result) Render() string {
	var b strings.Builder
	b.WriteString("Table IV: workload construction\n")
	t := newTable("workload", "benchmarks", "RSD", "RSD(paper)", "group")
	for _, row := range t4.Rows {
		group := "homogeneous"
		if row.Heterogeneous {
			group = "heterogeneous"
		}
		t.addRow(row.Name, strings.Join(row.Benchmarks, "-"), f2(row.ReferenceRSD), f2(row.PaperRSD), group)
	}
	b.WriteString(t.String())
	return b.String()
}

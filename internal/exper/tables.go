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

// Table3Result reproduces the benchmark classification table. It stays a
// typed result because the benchmark harness counts its class matches.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 characterizes every benchmark alone under the runner's memory
// configuration.
func (r *Runner) Table3() (*Table3Result, error) {
	if err := r.warmAloneCache(r.baseCtx(), []base{{r.own, workload.Mix{Benchmarks: workload.Names()}}}); err != nil {
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

// Table lays out the characterization, keyed by benchmark name, with the
// class-match count as a note.
func (t3 *Table3Result) Table() *Table {
	t := newTable("Table III: benchmark classification (measured vs paper)",
		"name", "APKC", "APKC(paper)", "APKI", "APKI(paper)", "class", "class(paper)")
	for _, row := range t3.Rows {
		t.add(txt(row.Name), f3(row.MeasuredAPKC), f3(row.PaperAPKC),
			f3(row.MeasuredAPKI), f3(row.PaperAPKI),
			txt(row.MeasuredClass.String()), txt(row.PaperClass.String()))
	}
	t.note("intensity class matches: %d/16", t3.ClassMatches())
	return t
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

// Table4 reproduces the workload construction table. It is purely
// computational (RSD of reference APC_alone values); rows are keyed by mix.
func Table4() (*Table, error) {
	t := newTable("Table IV: workload construction", "workload", "benchmarks", "RSD", "RSD(paper)", "group")
	for _, m := range workload.AllMixes() {
		rsd, err := m.ReferenceRSD()
		if err != nil {
			return nil, err
		}
		group := "homogeneous"
		if m.Heterogeneous() {
			group = "heterogeneous"
		}
		t.add(txt(m.Name), txt(strings.Join(m.Benchmarks, "-")), f2(rsd), f2(m.PaperRSD), txt(group))
	}
	return t, nil
}

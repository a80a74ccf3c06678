package workload

import (
	"fmt"

	"bwpart/internal/mathx"
)

// Mix is a named multiprogrammed workload: one benchmark per core.
type Mix struct {
	Name       string
	Benchmarks []string
	// PaperRSD is the heterogeneity (relative standard deviation of
	// APC_alone, in percent) the paper reports for this mix (Table IV).
	PaperRSD float64
}

// Profiles resolves the mix's benchmark names.
func (m Mix) Profiles() ([]Profile, error) {
	out := make([]Profile, len(m.Benchmarks))
	for i, name := range m.Benchmarks {
		p, err := ByName(name)
		if err != nil {
			return nil, fmt.Errorf("mix %s: %w", m.Name, err)
		}
		out[i] = p
	}
	return out, nil
}

// ReferenceRSD computes the heterogeneity of the mix from the Table III
// reference APKC values (the paper's workload-construction metric).
func (m Mix) ReferenceRSD() (float64, error) {
	ps, err := m.Profiles()
	if err != nil {
		return 0, err
	}
	apcs := make([]float64, len(ps))
	for i, p := range ps {
		apcs[i] = p.TableAPKC
	}
	return mathx.RSD(apcs)
}

// Heterogeneous reports whether the mix crosses the paper's RSD > 30
// threshold. The paper's published RSD is used when recorded (its measured
// APC_alone values differ slightly from the Table III references — homo-7
// sits right at the boundary); otherwise the reference RSD decides.
func (m Mix) Heterogeneous() bool {
	if m.PaperRSD > 0 {
		return m.PaperRSD > 30
	}
	rsd, err := m.ReferenceRSD()
	return err == nil && rsd > 30
}

// Scale returns the mix replicated k times (4 apps -> 4k apps), used by the
// paper's scalability study (Figure 4: 1, 2, 4 copies for 3.2, 6.4,
// 12.8 GB/s).
func (m Mix) Scale(k int) Mix {
	out := Mix{Name: fmt.Sprintf("%s-x%d", m.Name, k), PaperRSD: m.PaperRSD}
	for i := 0; i < k; i++ {
		out.Benchmarks = append(out.Benchmarks, m.Benchmarks...)
	}
	return out
}

// Table IV mixes.
var (
	homoMixes = []Mix{
		{Name: "homo-1", Benchmarks: []string{"libquantum", "milc", "soplex", "hmmer"}, PaperRSD: 12.27},
		{Name: "homo-2", Benchmarks: []string{"libquantum", "milc", "soplex", "omnetpp"}, PaperRSD: 13.02},
		{Name: "homo-3", Benchmarks: []string{"hmmer", "gromacs", "sphinx3", "leslie3d"}, PaperRSD: 18.55},
		{Name: "homo-4", Benchmarks: []string{"hmmer", "gromacs", "bzip2", "leslie3d"}, PaperRSD: 19.16},
		{Name: "homo-5", Benchmarks: []string{"h264ref", "zeusmp", "bzip2", "gromacs"}, PaperRSD: 19.74},
		{Name: "homo-6", Benchmarks: []string{"h264ref", "zeusmp", "gobmk", "gromacs"}, PaperRSD: 24.06},
		{Name: "homo-7", Benchmarks: []string{"h264ref", "zeusmp", "gobmk", "bzip2"}, PaperRSD: 29.71},
	}
	heteroMixes = []Mix{
		{Name: "hetero-1", Benchmarks: []string{"milc", "soplex", "zeusmp", "bzip2"}, PaperRSD: 41.93},
		{Name: "hetero-2", Benchmarks: []string{"soplex", "hmmer", "gromacs", "gobmk"}, PaperRSD: 45.10},
		{Name: "hetero-3", Benchmarks: []string{"libquantum", "soplex", "zeusmp", "h264ref"}, PaperRSD: 47.92},
		{Name: "hetero-4", Benchmarks: []string{"lbm", "soplex", "h264ref", "bzip2"}, PaperRSD: 50.31},
		{Name: "hetero-5", Benchmarks: []string{"libquantum", "milc", "gromacs", "gobmk"}, PaperRSD: 52.99},
		{Name: "hetero-6", Benchmarks: []string{"lbm", "libquantum", "gromacs", "zeusmp"}, PaperRSD: 58.31},
		{Name: "hetero-7", Benchmarks: []string{"lbm", "milc", "gobmk", "zeusmp"}, PaperRSD: 69.84},
	}
	qosMixes = []Mix{
		{Name: "mix-1", Benchmarks: []string{"lbm", "libquantum", "omnetpp", "hmmer"}},
		{Name: "mix-2", Benchmarks: []string{"h264ref", "zeusmp", "leslie3d", "hmmer"}},
	}
)

// HomoMixes returns the paper's seven homogeneous workloads (Table IV).
func HomoMixes() []Mix { return cloneMixes(homoMixes) }

// HeteroMixes returns the paper's seven heterogeneous workloads (Table IV).
func HeteroMixes() []Mix { return cloneMixes(heteroMixes) }

// AllMixes returns homo then hetero mixes in Table IV order.
func AllMixes() []Mix { return append(HomoMixes(), HeteroMixes()...) }

// QoSMixes returns the two mixes of the QoS-guarantee experiment
// (Figure 3); both contain hmmer, the QoS-guaranteed application.
func QoSMixes() []Mix { return cloneMixes(qosMixes) }

// MotivationMix returns the four-application workload of Figure 1
// (libquantum, milc, gromacs, gobmk).
func MotivationMix() Mix {
	return Mix{Name: "motivation", Benchmarks: []string{"libquantum", "milc", "gromacs", "gobmk"}}
}

// MixByName finds any named mix. Only the mix found is copied: servers
// resolve a name per request.
func MixByName(name string) (Mix, error) {
	for _, table := range [][]Mix{homoMixes, heteroMixes, qosMixes} {
		for _, m := range table {
			if m.Name == name {
				return cloneMixes([]Mix{m})[0], nil
			}
		}
	}
	if m := MotivationMix(); m.Name == name {
		return m, nil
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q", name)
}

func cloneMixes(in []Mix) []Mix {
	out := make([]Mix, len(in))
	for i, m := range in {
		out[i] = Mix{Name: m.Name, PaperRSD: m.PaperRSD, Benchmarks: append([]string(nil), m.Benchmarks...)}
	}
	return out
}

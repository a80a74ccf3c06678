package sim

import (
	"fmt"

	"bwpart/internal/workload"
)

// AloneProfile is the standalone characterization of one benchmark on a
// given memory system: the quantities the analytical model takes as input.
type AloneProfile struct {
	Name     string
	IPCAlone float64
	APCAlone float64 // off-chip accesses per cycle with the full bandwidth
	API      float64 // off-chip accesses per instruction (partitioning-invariant)
	APKC     float64
	APKI     float64
}

// ProfileAlone runs one benchmark alone on the system described by cfg for
// the given number of cycles (after warmup) and returns its standalone
// characterization. This corresponds to the paper's per-application
// profiling phase and to the measurements behind Table III.
func ProfileAlone(cfg Config, p workload.Profile, cycles int64) (AloneProfile, error) {
	if cycles <= 0 {
		return AloneProfile{}, fmt.Errorf("sim: non-positive profiling window %d", cycles)
	}
	// A way quota splits a mix's shared L2; alone, the one application gets
	// every way, as a nil quota gives it.
	cfg.L2WayQuota = nil
	sys, err := New(cfg, []workload.Profile{p})
	if err != nil {
		return AloneProfile{}, err
	}
	sys.Warmup()
	// Let the pipeline and queues reach steady state before measuring.
	settle := cycles / 5
	if settle > 50_000 {
		settle = 50_000
	}
	sys.Run(settle)
	sys.ResetStats()
	sys.Run(cycles)
	res := sys.Results()
	a := res.Apps[0]
	return AloneProfile{
		Name:     p.Name,
		IPCAlone: a.IPC,
		APCAlone: a.APC,
		API:      a.API,
		APKC:     a.APKC,
		APKI:     a.APKI,
	}, nil
}

// ProfileAloneAll profiles every benchmark in profs alone under cfg,
// returning results in the same order.
func ProfileAloneAll(cfg Config, profs []workload.Profile, cycles int64) ([]AloneProfile, error) {
	out := make([]AloneProfile, len(profs))
	for i, p := range profs {
		ap, err := ProfileAlone(cfg, p, cycles)
		if err != nil {
			return nil, err
		}
		out[i] = ap
	}
	return out, nil
}

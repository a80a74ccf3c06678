package exper

import (
	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// preparedRegistry shares warmed bases across every entry point and system of
// one runner: the first request for a (system, mix) pays its functional
// warmup and snapshot, and every later measurement forks that warm checkpoint
// instead of re-warming. It is the engine's memo at cost 1 per finished base
// and bound preparedCap; callers pin a base while they fork from it, and an
// evicted base is re-warmed on its next use (forks are bit-identical to cold
// runs).
// A base is its immutable profiles and checkpoint, nothing else: the warmed
// system is dropped once snapshotted, and every cell runs on a system of its
// own (Runner.forkPrepared).
type preparedRegistry struct {
	memo[*preparedMix]
	r *Runner // owner: prepares under its configuration
}

func newPreparedRegistry(r *Runner) *preparedRegistry {
	return &preparedRegistry{r: r, memo: newMemo[*preparedMix](preparedCap, func(col *obs.Collector, evicted, _ int64) {
		col.Add(obs.PreparedEvictions, evicted)
	})}
}

// acquire returns mix's warm base on on, preparing it (once, under
// single-flight) if absent, and pins it against eviction. The returned
// release must be called when the caller no longer needs the base.
func (g *preparedRegistry) acquire(on *system, mix workload.Mix) (*preparedMix, func(), error) {
	col := g.r.cfg.Obs
	e, _, err := g.get(baseKey(on, mix), col, true, true, func() (*preparedMix, int64, error) {
		p, _, err := g.r.prepareMix(on, mix)
		return p, baseCost(mix), err
	})
	if err != nil {
		return nil, nil, err
	}
	return e.val, func() { g.unpin(e, col) }, nil
}

// baseCost is a warm base's cost to the registry: one per four cores it holds.
func baseCost(mix workload.Mix) int64 { return int64(len(mix.Benchmarks)+3) / 4 }

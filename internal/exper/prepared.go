package exper

import (
	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// preparedRegistry shares warmed bases across every simulation entry point
// of one runner: the first request for a mix pays its functional warmup and
// snapshot, and every later measurement forks that warm checkpoint instead of
// re-warming. It is the engine's memo at cost 1 per finished base and bound
// preparedCap; callers pin a base while they fork from it, and an evicted mix
// is re-warmed on its next use (forked runs are bit-identical to cold runs).
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

// acquire returns mix's warm base, preparing it (once, under single-flight)
// if absent, and pins it against eviction. The returned release must be
// called when the caller no longer needs the base.
func (g *preparedRegistry) acquire(mix workload.Mix) (*preparedMix, func(), error) {
	col := g.r.cfg.Obs
	e, _, err := g.get(mixKey(mix), col, true, true, func() (*preparedMix, int64, error) {
		p, _, err := g.r.prepareMix(mix)
		return p, 1, err
	})
	if err != nil {
		return nil, nil, err
	}
	return e.val, func() { g.unpin(e, col) }, nil
}

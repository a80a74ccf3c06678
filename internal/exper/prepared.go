package exper

import "bwpart/internal/workload"

// acquire returns mix's warm base on on, preparing it (once, under
// single-flight) if absent, and pins it against eviction. The returned
// release must be called when the caller no longer needs the base.
//
// The warm bases (Runner.bases) are shared across every entry point and
// system of one runner: the first request for a (system, mix) pays its
// functional warmup and snapshot, and every later measurement forks that warm
// checkpoint instead of re-warming. They are the engine's memo at cost
// baseCost per finished base and bound preparedCap; callers pin a base while
// they fork from it, and an evicted base is re-warmed on its next use (forks
// are bit-identical to cold runs). A base is its immutable profiles and
// checkpoint, nothing else: the warmed system is dropped once snapshotted,
// and every cell runs on a system of its own (Runner.forkPrepared).
func (r *Runner) acquire(on *system, mix workload.Mix) (*preparedMix, func(), error) {
	col := r.cfg.Obs
	e, _, err := r.bases.get(baseKey(on, mix), col, true, true, func() (*preparedMix, int64, error) {
		p, err := r.prepareMix(on, mix)
		return p, baseCost(mix), err
	})
	if err != nil {
		return nil, nil, err
	}
	return e.val, func() { r.bases.unpin(e, col) }, nil
}

// baseCost is a warm base's cost to the registry: one per four cores it holds.
func baseCost(mix workload.Mix) int64 { return int64(len(mix.Benchmarks)+3) / 4 }

package exper

import (
	"errors"
	"fmt"

	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// IntervalStudy is the repartitioning-interval sensitivity study: the paper
// re-profiles and repartitions every 10M cycles; this sweep runs the online
// loop with several epoch lengths on one mix under one scheme and reports,
// per epoch length, the Hsp achieved and the final online APC_alone
// estimation error (too short: noisy estimates; long: slower adaptation —
// on stationary workloads mainly the noise matters). The total simulated
// work is held roughly constant: the epoch count scales inversely with the
// epoch length.
func (r *Runner) IntervalStudy(mix workload.Mix, scheme string, epochs []int64) (*Table, error) {
	if len(epochs) == 0 {
		return nil, errors.New("exper: no interval points")
	}
	t := newTable(fmt.Sprintf("Repartitioning interval sensitivity: %s under %s", mix.Name, scheme),
		"epoch (cycles)", "Hsp", "estimator error")
	const totalBudget = 600_000 // cycles of online adaptation per point
	for _, epoch := range epochs {
		if epoch <= 0 {
			return nil, fmt.Errorf("exper: non-positive epoch %d", epoch)
		}
		n := int(totalBudget / epoch)
		if n < 2 {
			n = 2
		}
		res, err := r.RunOnline(mix, scheme, epoch, n)
		if err != nil {
			return nil, err
		}
		t.add(txt(fmt.Sprintf("%d", epoch)), f3(res.Values[metrics.ObjectiveHsp]), pct(res.EstimatorError()))
	}
	return t, nil
}

package exper

import (
	"errors"
	"fmt"

	"bwpart/internal/metrics"
	"bwpart/internal/workload"
)

// IntervalStudy is the repartitioning-interval sensitivity study: the paper
// re-profiles and repartitions every 10M cycles; this sweep runs the online
// cell of one scheme on one mix with several epoch lengths, as one batch, and
// reports, per epoch length, the Hsp achieved and the final online APC_alone
// estimation error (too short: noisy estimates; long: slower adaptation —
// on stationary workloads mainly the noise matters). The total simulated
// work is held roughly constant: the epoch count scales inversely with the
// epoch length.
func (r *Runner) IntervalStudy(mix workload.Mix, scheme string, epochs []int64) (*Table, error) {
	if len(epochs) == 0 {
		return nil, errors.New("exper: no interval points")
	}
	const totalBudget = 600_000 // cycles of online adaptation per point
	cells := make([]GridCell, len(epochs))
	for i, epoch := range epochs {
		if epoch <= 0 {
			return nil, fmt.Errorf("exper: non-positive epoch %d", epoch)
		}
		cells[i] = GridCell{Mix: mix, Scheme: onlinePrefix + scheme, Epoch: epoch, Epochs: max(int(totalBudget/epoch), 2)}
	}
	runs, err := r.RunCells(r.baseCtx(), cells, nil)
	if err != nil {
		return nil, err
	}
	t := newTable(fmt.Sprintf("Repartitioning interval sensitivity: %s under %s", mix.Name, scheme),
		"epoch (cycles)", "Hsp", "estimator error")
	for i, run := range runs {
		t.add(txt(fmt.Sprintf("%d", epochs[i])), f3(run.Values[metrics.ObjectiveHsp]), pct(run.EstimatorError()))
	}
	return t, nil
}

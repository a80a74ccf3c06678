package exper

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"

	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// Simulations of distinct (mix, scheme) pairs are independent, so the big
// sweeps fan out across a bounded worker pool. Determinism is preserved:
// each simulation is seeded independently of scheduling order, results are
// keyed by job index, and a failing sweep always reports the lowest-index
// job's error first regardless of which failure a worker observed first.

// ParallelismEnv overrides the default worker count when set to a positive
// integer (config takes precedence over the environment).
const ParallelismEnv = "BWPART_PARALLELISM"

// defaultParallelism bounds concurrent simulations: Config.Parallelism if
// positive, else $BWPART_PARALLELISM, else GOMAXPROCS.
func defaultParallelism() int {
	if s := os.Getenv(ParallelismEnv); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return max(runtime.GOMAXPROCS(0), 1)
}

// parallelism resolves the runner's worker count.
func (r *Runner) parallelism() int {
	if r.cfg.Parallelism > 0 {
		return r.cfg.Parallelism
	}
	return defaultParallelism()
}

// jobErrors aggregates the failures of one runJobs batch in ascending job
// index order, so the primary (first-rendered) error is scheduling
// independent. Unwrap exposes every failure to errors.Is/As.
type jobErrors struct {
	indices []int   // ascending
	errs    []error // parallel to indices
}

func (e *jobErrors) Error() string {
	msg := fmt.Sprintf("job %d: %v", e.indices[0], e.errs[0])
	if len(e.errs) > 1 {
		msg += fmt.Sprintf(" (and %d more job errors)", len(e.errs)-1)
	}
	return msg
}

func (e *jobErrors) Unwrap() []error { return e.errs }

// runJobs executes fn(i) for i in [0, n) on a bounded worker pool, with:
//
//   - cancellation: the first failure stops dispatch of not-yet-started
//     jobs (already-running jobs finish, preserving determinism);
//   - panic recovery: a panicking job fails its job with a stack-carrying
//     error instead of killing the process;
//   - deterministic error aggregation: the returned error renders the
//     lowest-index failure first and unwraps to every collected failure
//     (errors.Join semantics via Unwrap() []error);
//   - observability: job counters are reported to col. They count cells: the
//     profiling and base-pinning fan-outs that precede a grid's cells pass a
//     nil collector (their stage timers record regardless).
//
// An external ctx cancellation aborts dispatch and surfaces ctx.Err() when
// no job failed. fn must be safe for concurrent invocation.
func runJobs(parent context.Context, workers int, col *obs.Collector, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = min(max(workers, 1), n)
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	col.Add(obs.JobsTotal, int64(n))

	var (
		mu     sync.Mutex
		failed = map[int]error{}
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				col.Add(obs.JobsStarted, 1)
				if err := runOne(i, fn); err != nil {
					col.Add(obs.JobsFailed, 1)
					mu.Lock()
					failed[i] = err
					mu.Unlock()
					cancel()
				} else {
					col.Add(obs.JobsFinished, 1)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if len(failed) == 0 {
		// No job failed, but the parent context may have aborted dispatch.
		return parent.Err()
	}
	je := &jobErrors{}
	for i := 0; i < n; i++ {
		if err, ok := failed[i]; ok {
			je.indices = append(je.indices, i)
			je.errs = append(je.errs, err)
		}
	}
	return je
}

// ErrJobPanicked marks errors produced by recovering a panicking job, so
// callers (the serve layer's failure classification, tests) can
// errors.Is-match a panic-induced failure through the aggregated jobErrors.
var ErrJobPanicked = errors.New("panicked")

// runOne invokes fn(i), converting a panic into an error that carries the
// job index and goroutine stack.
func runOne(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("job %d %w: %v\n%s", i, ErrJobPanicked, r, debug.Stack())
		}
	}()
	return fn(i)
}

// baseCtx resolves the runner's base context for entry points without an
// explicit context parameter (see Config.BaseContext).
func (r *Runner) baseCtx() context.Context {
	if r.cfg.BaseContext != nil {
		return r.cfg.BaseContext
	}
	return context.Background()
}

// runBatch runs a batch under the runner's configured parallelism and
// collector. Config.BaseContext, when set, cancels dispatch of
// not-yet-started jobs.
func (r *Runner) runBatch(n int, fn func(i int) error) error {
	return runJobs(r.baseCtx(), r.parallelism(), r.cfg.Obs, n, fn)
}

// GridCell names one (mix, scheme) point of a sweep grid.
type GridCell struct {
	Mix    workload.Mix
	Scheme string
}

// Grid expands mixes x schemes in row-major (mix-major) order.
func Grid(mixes []workload.Mix, schemes []string) []GridCell {
	cells := make([]GridCell, 0, len(mixes)*len(schemes))
	for _, mix := range mixes {
		for _, scheme := range schemes {
			cells = append(cells, GridCell{Mix: mix, Scheme: scheme})
		}
	}
	return cells
}

// RunGrid is the experiment engine's sweep entry point. Every cell takes the
// same lookup order as RunMix (see Runner.lookup). A first pass resolves the
// resident cells — memory or disk tier — on the calling goroutine, so a grid
// that is entirely resident profiles, pins, forks, and dispatches nothing.
// Only the cells left over are simulated: grid points sharing a mix share one
// warm base from the prepared-mix registry, and finished cells persist
// through Config.Checkpoint. They are dispatched in mix-groups no larger than
// the registry's warm-base capacity: each group's bases are prepared in
// parallel and pinned, the group's cells fork and measure in parallel, then
// the pins drop — so a thousand-mix sweep holds a bounded number of warm
// systems while still keeping every worker busy.
//
// Results arrive in deterministic row-major order matching
// Grid(mixes, schemes). ctx cancels the sweep between simulations.
func (r *Runner) RunGrid(ctx context.Context, mixes []workload.Mix, schemes []string) ([]*MixRun, error) {
	cells := Grid(mixes, schemes)
	results := make([]*MixRun, len(cells))
	var missing []int
	for i, cell := range cells {
		// Any failure — not resident, or a joined simulation that failed —
		// sends the cell to the simulation phases, which report it.
		if run, err := r.lookup(cell.Mix, cell.Scheme, false); err == nil {
			results[i] = run
		} else {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		return results, nil
	}

	// Only mixes with missing cells need alone profiles and a warmed base.
	needIdx := make([]int, 0, len(mixes))
	seen := make(map[int]bool, len(mixes))
	byMix := make(map[int][]int, len(mixes)) // mix index -> missing cell indices
	for _, ci := range missing {
		mi := ci / len(schemes)
		if !seen[mi] {
			seen[mi] = true
			needIdx = append(needIdx, mi)
		}
		byMix[mi] = append(byMix[mi], ci)
	}
	var benchmarks []string
	for _, mi := range needIdx {
		benchmarks = append(benchmarks, mixes[mi].Benchmarks...)
	}
	if err := r.warmAloneCache(ctx, benchmarks); err != nil {
		return nil, err
	}

	measure := func(ci int) error {
		cell := cells[ci]
		run, err := r.RunMix(cell.Mix, cell.Scheme)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", cell.Mix.Name, cell.Scheme, err)
		}
		results[ci] = run
		return nil
	}

	if r.prepared == nil {
		// Reference executor: every missing cell runs cold, fanned out flat.
		return results, runJobs(ctx, r.parallelism(), r.cfg.Obs, len(missing), func(k int) error {
			return measure(missing[k])
		})
	}

	groupSize := r.prepared.cap
	for start := 0; start < len(needIdx); start += groupSize {
		group := needIdx[start:min(start+groupSize, len(needIdx))]

		// Pin (and prepare, first time) the group's warm bases in parallel,
		// so the group's cells never race to re-warm an evicted base.
		releases := make([]func(), len(group))
		err := runJobs(ctx, r.parallelism(), nil, len(group), func(k int) error {
			_, release, err := r.prepared.acquire(mixes[group[k]])
			if err != nil {
				return fmt.Errorf("%s: %w", mixes[group[k]].Name, err)
			}
			releases[k] = release
			return nil
		})
		unpin := func() {
			for _, release := range releases {
				if release != nil {
					release()
				}
			}
		}
		if err != nil {
			unpin()
			return nil, err
		}

		groupCells := make([]int, 0, len(group)*len(schemes))
		for _, mi := range group {
			groupCells = append(groupCells, byMix[mi]...)
		}
		err = runJobs(ctx, r.parallelism(), r.cfg.Obs, len(groupCells), func(k int) error {
			return measure(groupCells[k])
		})
		unpin()
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// warmAloneCache profiles the named benchmarks concurrently, skipping
// duplicates and those already profiled. Alone is already single-flight, so
// this is purely a fan-out: after it returns, later lookups are cache reads.
func (r *Runner) warmAloneCache(ctx context.Context, benchmarks []string) error {
	seen := map[string]bool{}
	var names []string
	for _, b := range benchmarks {
		if !seen[b] && !r.cached(b) {
			seen[b] = true
			names = append(names, b)
		}
	}
	return runJobs(ctx, r.parallelism(), nil, len(names), func(i int) error {
		_, err := r.Alone(names[i])
		return err
	})
}

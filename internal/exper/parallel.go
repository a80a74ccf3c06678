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

// Simulations of distinct cells are independent, so the big
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

// GridCell is a cell, the engine's unit of measurement: a mix under a
// controller policy from the registry (Scheme: NoPartitioning, a core
// scheme, a heuristic scheduler, fr-fcfs, a share-taking policy, or a core
// scheme run online), with an explicit share vector exactly when the policy
// takes one and Epochs epochs of Epoch cycles exactly when it is online, on
// a System. Every windowed run — a sweep's grid point or a study's
// configuration — is a cell: memoized, checkpointed, forked from a warm base.
type GridCell struct {
	Mix    workload.Mix
	Scheme string
	Shares []float64
	Epoch  int64
	Epochs int
	System System
}

// Grid expands mixes x schemes in row-major (mix-major) order.
func Grid(mixes []workload.Mix, schemes []string) []GridCell { return System{}.Grid(mixes, schemes) }

// Grid is Grid with every cell on s.
func (s System) Grid(mixes []workload.Mix, schemes []string) []GridCell {
	cells := make([]GridCell, 0, len(mixes)*len(schemes))
	for _, mix := range mixes {
		for _, scheme := range schemes {
			cells = append(cells, GridCell{Mix: mix, Scheme: scheme, System: s})
		}
	}
	return cells
}

// RunGrid is the experiment engine's sweep entry point: RunCells over
// Grid(mixes, schemes) without a per-cell callback. Its runs are shared as
// RunMix's are: never modify one.
func (r *Runner) RunGrid(ctx context.Context, mixes []workload.Mix, schemes []string) ([]*MixRun, error) {
	return r.RunCells(ctx, Grid(mixes, schemes), nil)
}

// base is a mix on a resolved system: a warm base's identity.
type base struct {
	on  *system
	mix workload.Mix
}

// RunCells resolves every cell, in order, each taking RunMix's lookup order;
// its runs are shared as RunMix's are: never modify one. ctx cancels the
// batch between simulations. each, when non-nil, is called exactly once per
// delivered cell with its index, from whichever goroutine resolved it, so it
// must be safe for concurrent use; never for a failed cell, nor after
// RunCells returns.
//
// A first pass resolves the resident cells — memory or disk tier — on the
// calling goroutine, so an all-resident batch profiles, pins, forks, and
// dispatches nothing, and a batch with a cell the first pass rejects (an
// unknown policy or System) fails before anything is simulated, naming its
// lowest-index such cell. The other cells are simulated in groups of warm
// bases — one per (system, mix) — within the registry's bound (or one base):
// each group's bases are prepared in parallel and pinned, its cells fork and
// measure in parallel, then the pins drop, so a thousand-mix sweep holds a
// bounded number of warm systems while keeping every worker busy. A cell the
// batch repeats (by cellKey) is one job: its later indices get what the first
// resolves (relabeled for an aliased mix), each counted as coalesced onto it.
func (r *Runner) RunCells(ctx context.Context, cells []GridCell, each func(cell int, run *MixRun)) ([]*MixRun, error) {
	results := make([]*MixRun, len(cells))
	deliver := func(ci int, run *MixRun) {
		results[ci] = run
		if each != nil {
			each(ci, run)
		}
	}
	type pending struct { // a missing cell and its resolved System
		ci int
		on *system
	}
	var missing []pending
	var firstErr error
	first := make(map[string]int)  // cellKey -> its first missing index
	repeats := make(map[int][]int) // first missing index -> later ones
	for i, c := range cells {
		on, err := r.system(c.System)
		var run *MixRun
		if err == nil {
			run, err = r.lookup(on, c, false)
		}
		switch {
		case err == nil:
			deliver(i, run)
		case errors.Is(err, errNotResident):
			key := cellKey(on.fp, c)
			if f, ok := first[key]; ok {
				repeats[f] = append(repeats[f], i)
				break
			}
			first[key] = i
			missing = append(missing, pending{i, on})
		case firstErr == nil:
			firstErr = fmt.Errorf("cell %d (%s/%s): %w", i, c.Mix.Name, c.Scheme, err)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if len(missing) == 0 {
		return results, nil
	}

	// Only bases with missing cells need alone profiles and warming.
	var bases []base
	byBase := make(map[string][]pending) // baseKey -> missing cells
	for _, m := range missing {
		b := base{m.on, cells[m.ci].Mix}
		key := baseKey(b.on, b.mix)
		if byBase[key] == nil {
			bases = append(bases, b)
		}
		byBase[key] = append(byBase[key], m)
	}
	if err := r.warmAloneCache(ctx, bases); err != nil {
		return nil, err
	}

	measure := func(m pending) error {
		c := cells[m.ci]
		run, err := r.lookup(m.on, c, true)
		if err != nil {
			return fmt.Errorf("%s/%s: %w", c.Mix.Name, c.Scheme, err)
		}
		deliver(m.ci, run)
		for _, ri := range repeats[m.ci] {
			r.cfg.Obs.Add(obs.CellCoalesced, 1)
			deliver(ri, relabel(run, cells[ri].Mix))
		}
		return nil
	}

	for start, end := 0, 0; start < len(bases); start = end {
		// A group is as many bases as the registry's bound holds, at least one.
		for cost := int64(0); end == start || (end < len(bases) && cost+baseCost(bases[end].mix) <= r.bases.bound); end++ {
			cost += baseCost(bases[end].mix)
		}
		group := bases[start:end]

		// Pin (and prepare, first time) the group's warm bases in parallel,
		// so the group's cells never race to re-warm an evicted base.
		releases := make([]func(), len(group))
		err := runJobs(ctx, r.parallelism(), nil, len(group), func(k int) error {
			_, release, err := r.acquire(group[k].on, group[k].mix)
			if err != nil {
				return fmt.Errorf("%s: %w", group[k].mix.Name, err)
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

		var groupCells []pending
		for _, b := range group {
			groupCells = append(groupCells, byBase[baseKey(b.on, b.mix)]...)
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

// warmAloneCache profiles the benchmarks of every base on its system
// concurrently, skipping duplicates. Alone is already single-flight and a
// profiled benchmark is a hit, so this is purely a fan-out: after it returns,
// later lookups are memo reads.
func (r *Runner) warmAloneCache(ctx context.Context, bases []base) error {
	type profile struct {
		on   *system
		name string
	}
	seen := map[profile]bool{}
	var todo []profile
	for _, b := range bases {
		for _, name := range b.mix.Benchmarks {
			if p := (profile{b.on, name}); !seen[p] {
				seen[p] = true
				todo = append(todo, p)
			}
		}
	}
	return runJobs(ctx, r.parallelism(), nil, len(todo), func(i int) error {
		_, err := r.aloneOn(todo[i].on, todo[i].name)
		return err
	})
}

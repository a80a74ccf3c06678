package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestConcurrentForks builds systems from one shared warm Checkpoint on four
// goroutines at once, as the experiment engine forks a mix's warm base for
// its cells, and runs each under a different scheduler. Every concurrent
// fork must match the serial fork of the same scheduler: Result and issue
// trace. `make race` runs this test under the race detector, which then
// also checks that FromCheckpoint only reads the checkpoint and that forks
// share no mutable state (the rest of the package is too slow under -race,
// and its allocation bounds do not hold there).
func TestConcurrentForks(t *testing.T) {
	const settle, measure = 5_000, 60_000
	scheds := snapshotScheds()[:4]
	for _, shared := range []bool{false, true} {
		t.Run(fmt.Sprintf("shared=%v", shared), func(t *testing.T) {
			base := buildWarm(t, shared)
			cp, err := base.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			profs := mustProfiles(t, "lbm", "milc", "soplex", "povray")
			type run struct {
				res   Result
				trace []traceRec
				err   error
			}
			fork := func(i int) run {
				sys, err := FromCheckpoint(base.cfg, profs, cp)
				if err != nil {
					return run{err: err}
				}
				s, err := scheds[i].make(sys.NumApps())
				if err != nil {
					return run{err: err}
				}
				if err := sys.Controller().SetScheduler(s); err != nil {
					return run{err: err}
				}
				res, trace := measureTraced(sys, settle, measure)
				return run{res: res, trace: trace}
			}
			serial := make([]run, len(scheds))
			for i := range scheds {
				if serial[i] = fork(i); serial[i].err != nil {
					t.Fatal(serial[i].err)
				}
			}
			concurrent := make([]run, len(scheds))
			var wg sync.WaitGroup
			for i := range scheds {
				wg.Add(1)
				go func() {
					defer wg.Done()
					concurrent[i] = fork(i)
				}()
			}
			wg.Wait()
			for i, got := range concurrent {
				switch want := serial[i]; {
				case got.err != nil:
					t.Errorf("%s: %v", scheds[i].name, got.err)
				case !reflect.DeepEqual(want.res, got.res):
					t.Errorf("%s: results diverge\nserial:     %+v\nconcurrent: %+v", scheds[i].name, want.res, got.res)
				case !reflect.DeepEqual(want.trace, got.trace):
					t.Errorf("%s: traces diverge (serial %d records, concurrent %d)", scheds[i].name, len(want.trace), len(got.trace))
				}
			}
		})
	}
}

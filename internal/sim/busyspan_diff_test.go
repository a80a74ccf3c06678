package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"bwpart/internal/dram"
	"bwpart/internal/memctrl"
)

// This file is the randomized differential table for the simulation kernel:
// for every scheduler the controller ships, under both L2 topologies and
// both DRAM page policies, a randomized system configuration must produce
// bit-identical observations (see diffKernels) under the naive loop and the
// wake scheduler. It is also the seed table of FuzzKernelEquivalence.

// busyFuzzPool lists the workloads the fuzzer draws from: memory-bound
// profiles (lbm, milc, libquantum) keep the controller saturated so busy
// spans dominate, lighter ones (povray, h264ref) mix in idle spans and
// queue-empty transitions.
var busyFuzzPool = []string{
	"lbm", "milc", "libquantum", "soplex", "omnetpp", "gromacs", "povray", "h264ref",
}

// busySchedulers enumerates every scheduler under test with a fresh-instance
// factory (the two loops must never share mutable policy state). The list
// spans all three span classes: idle-safe (FCFS, FR-FCFS, StartTimeFair,
// Priority, BudgetThrottle, WriteDrain over an idle-safe inner), busy-safe
// (STFM, ATLAS, TCM, PARBS), and none
// (WriteDrain over PARBS, the one shape in which batch-marked entries leave
// a queue out of order; WriteDrain over STFM is exercised by
// TestKernelUnsafeSchedulerFallsBack). New entries go last: the fuzz seed
// corpus and the per-cell case streams are drawn in list order.
func busySchedulers(numApps int) []struct {
	name string
	mk   func(t *testing.T) memctrl.Scheduler
} {
	shares := make([]float64, numApps)
	order := make([]int, numApps)
	for i := range shares {
		shares[i] = float64(i+1) * 2 / float64(numApps*(numApps+1))
		order[i] = numApps - 1 - i
	}
	mustSched := func(t *testing.T, s memctrl.Scheduler, err error) memctrl.Scheduler {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []struct {
		name string
		mk   func(t *testing.T) memctrl.Scheduler
	}{
		{"fcfs", func(t *testing.T) memctrl.Scheduler { return memctrl.NewFCFS() }},
		{"frfcfs", func(t *testing.T) memctrl.Scheduler { return memctrl.NewFRFCFS(8) }},
		{"stf", func(t *testing.T) memctrl.Scheduler {
			s, err := memctrl.NewStartTimeFair(shares)
			return mustSched(t, s, err)
		}},
		{"priority", func(t *testing.T) memctrl.Scheduler {
			s, err := memctrl.NewPriority(order)
			return mustSched(t, s, err)
		}},
		{"budget", func(t *testing.T) memctrl.Scheduler {
			s, err := memctrl.NewBudgetThrottle(shares, 2000)
			return mustSched(t, s, err)
		}},
		{"writedrain", func(t *testing.T) memctrl.Scheduler {
			s, err := memctrl.NewWriteDrain(memctrl.NewFRFCFS(8), 12, 4)
			return mustSched(t, s, err)
		}},
		{"stfm", func(t *testing.T) memctrl.Scheduler {
			s, err := memctrl.NewSTFM(numApps, 1.1)
			return mustSched(t, s, err)
		}},
		{"atlas", func(t *testing.T) memctrl.Scheduler {
			s, err := memctrl.NewATLAS(numApps, 5000, 0.875)
			return mustSched(t, s, err)
		}},
		{"tcm", func(t *testing.T) memctrl.Scheduler {
			s, err := memctrl.NewTCM(numApps, 5000, 800, 0.3, 42)
			return mustSched(t, s, err)
		}},
		{"parbs", func(t *testing.T) memctrl.Scheduler {
			s, err := memctrl.NewPARBS(numApps, 5)
			return mustSched(t, s, err)
		}},
		{"writedrain-parbs", func(t *testing.T) memctrl.Scheduler {
			p, err := memctrl.NewPARBS(numApps, 5)
			if err != nil {
				t.Fatal(err)
			}
			s, err := memctrl.NewWriteDrain(p, 12, 4)
			return mustSched(t, s, err)
		}},
	}
}

// busyFuzzCase is one randomized system configuration shared by both kernel
// runs of a differential pair.
type busyFuzzCase struct {
	names    []string
	queueCap int
	seed     int64
}

// randBusyCase draws a case from r: 2-4 apps (duplicates allowed — identical
// profiles with per-app generator streams stress tie-breaking), sometimes a
// tight controller queue cap (forcing the caches' deferred-retry spans
// against a full controller).
func randBusyCase(r *rand.Rand) busyFuzzCase {
	n := 2 + r.Intn(3)
	names := make([]string, n)
	for i := range names {
		names[i] = busyFuzzPool[r.Intn(len(busyFuzzPool))]
	}
	cap := 0
	if r.Intn(2) == 0 {
		cap = 4 + r.Intn(20)
	}
	return busyFuzzCase{names: names, queueCap: cap, seed: r.Int63()}
}

// kernelCase places the drawn configuration on a topology, page policy and
// scheduler.
func (fc busyFuzzCase) kernelCase(shared bool, policy dram.PagePolicy,
	mk func(t *testing.T) memctrl.Scheduler) kernelCase {
	return kernelCase{
		names: fc.names, shared: shared, policy: policy, queueCap: fc.queueCap,
		seed: fc.seed, sched: mk,
	}
}

// TestBusySpanKernelFuzz is the randomized differential fuzz across all
// eleven scheduler configurations x both topologies x both page policies:
// each combination gets deterministic pseudo-random system configurations,
// and the cycle-skipping kernel must reproduce the naive loop's Result,
// issue trace, and completion trace bit for bit.
func TestBusySpanKernelFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("differential fuzz is slow")
	}
	numSchedulers := len(busySchedulers(2))
	for _, shared := range []bool{false, true} {
		for _, policy := range []dram.PagePolicy{dram.ClosePage, dram.OpenPage} {
			// One deterministic case stream per (topology, policy) grid cell:
			// each scheduler gets a fresh random case, and the scheduler list
			// is rebuilt per case because share vectors and per-app policy
			// state depend on the drawn app count. A failure names a
			// reproducible (scheduler, case) pair via the seeded stream.
			r := rand.New(rand.NewSource(int64(0xb5 + 2*boolInt(shared) + boolInt(policy == dram.OpenPage))))
			for si := 0; si < numSchedulers; si++ {
				fc := randBusyCase(r)
				sched := busySchedulers(len(fc.names))[si]
				name := fmt.Sprintf("sharedL2=%v/%v/%s", shared, policy, sched.name)
				t.Run(name, func(t *testing.T) {
					diffKernels(t, fc.kernelCase(shared, policy, sched.mk))
					if t.Failed() {
						t.Logf("case %+v", fc)
					}
				})
			}
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

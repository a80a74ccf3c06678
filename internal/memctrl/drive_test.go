package memctrl

import (
	"fmt"
	"math/rand"
	"testing"

	"bwpart/internal/dram"
	"bwpart/internal/mem"
)

// The two matrix tests below keep the names they had while the controller
// carried an issue index next to the scan (the suite's pinned test list keys
// on full test names). What they check today is stated on each.

// issueRec is one access as seen by the controller's issue tracer or a
// request's Done callback.
type issueRec struct {
	cycle int64
	app   int
	addr  uint64
	write bool
}

// schedCase names one scheduler of a test table with a fresh-instance
// factory, so no two controllers share mutable policy state (tags, ranks,
// budgets, batches).
type schedCase struct {
	name string
	mk   func(t *testing.T) Scheduler
}

// diffSchedulers enumerates every scheduler under test: each policy once,
// write-drain over FR-FCFS, and write-drain over PARBS.
func diffSchedulers(numApps int) []schedCase {
	shares := make([]float64, numApps)
	order := make([]int, numApps)
	for i := range shares {
		shares[i] = float64(i+1) * 2 / float64(numApps*(numApps+1))
		order[i] = numApps - 1 - i
	}
	must := func(t *testing.T, s Scheduler, err error) Scheduler {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return []schedCase{
		{"fcfs", func(t *testing.T) Scheduler { return NewFCFS() }},
		{"frfcfs", func(t *testing.T) Scheduler { return NewFRFCFS(8) }},
		{"stf", func(t *testing.T) Scheduler {
			s, err := NewStartTimeFair(shares)
			return must(t, s, err)
		}},
		{"priority", func(t *testing.T) Scheduler {
			s, err := NewPriority(order)
			return must(t, s, err)
		}},
		{"budget", func(t *testing.T) Scheduler {
			s, err := NewBudgetThrottle(shares, 2000)
			return must(t, s, err)
		}},
		{"writedrain", func(t *testing.T) Scheduler {
			s, err := NewWriteDrain(NewFRFCFS(8), 12, 4)
			return must(t, s, err)
		}},
		{"stfm", func(t *testing.T) Scheduler {
			s, err := NewSTFM(numApps, 1.1)
			return must(t, s, err)
		}},
		{"atlas", func(t *testing.T) Scheduler {
			s, err := NewATLAS(numApps, 5000, 0.875)
			return must(t, s, err)
		}},
		{"tcm", func(t *testing.T) Scheduler {
			s, err := NewTCM(numApps, 5000, 800, 0.3, 42)
			return must(t, s, err)
		}},
		{"parbs", func(t *testing.T) Scheduler {
			s, err := NewPARBS(numApps, 5)
			return must(t, s, err)
		}},
		// WriteDrain issues non-head entries, so this is the one shape in
		// which PARBS-marked entries leave a queue out of order.
		{"writedrain-parbs", func(t *testing.T) Scheduler {
			p, err := NewPARBS(numApps, 5)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewWriteDrain(p, 12, 4)
			return must(t, s, err)
		}},
	}
}

// fullQueueCounts tallies queued reads and writes by walking every queue: the
// oracle for the controller's O(1) queued / queuedWrites counters.
func fullQueueCounts(c *Controller) (reads, writes int) {
	for a := range c.queues {
		q := &c.queues[a]
		for i := 0; i < q.len(); i++ {
			if q.at(i).Req.Write {
				writes++
			} else {
				reads++
			}
		}
	}
	return reads, writes
}

// checkQueuedWrites fails the test when the incrementally maintained
// counters WriteDrain's watermark reads disagree with a full-queue count.
func checkQueuedWrites(t *testing.T, c *Controller, cyc int64) {
	t.Helper()
	reads, writes := fullQueueCounts(c)
	if c.queuedWrites != writes || c.queued != reads+writes {
		t.Fatalf("cycle %d under %s: counters say %d queued / %d writes, the queues hold %d / %d",
			cyc, c.sched.Name(), c.queued, c.queuedWrites, reads+writes, writes)
	}
}

// diffDriver is a deterministic random workload over one or more
// controllers in sequence. It mixes reads and posted writes, strided and
// row-local address patterns, bursts, and idle gaps so row hits, bank
// conflicts, write-drain mode, and queue-empty transitions are all
// exercised.
type diffDriver struct {
	r            *rand.Rand
	addr         []uint64
	issues, done []issueRec
	// retired is the completion tracer's stream. Unlike done it covers
	// posted writes.
	retired []issueRec
}

func newDiffDriver(numApps int, seed int64) *diffDriver {
	d := &diffDriver{r: rand.New(rand.NewSource(seed)), addr: make([]uint64, numApps)}
	for a := range d.addr {
		d.addr[a] = uint64(a) << 41
	}
	return d
}

// attach records c's issue and completion streams into the driver.
func (d *diffDriver) attach(c *Controller) {
	c.SetTracer(func(cycle int64, app int, addr uint64, write bool) {
		d.issues = append(d.issues, issueRec{cycle, app, addr, write})
	})
	c.SetCompletionTracer(func(cycle int64, app int, addr uint64, write bool) {
		d.retired = append(d.retired, issueRec{cycle, app, addr, write})
	})
}

// step enqueues cycle cyc's arrivals into c, ticks it, and checks the
// queued-write counter.
func (d *diffDriver) step(t *testing.T, c *Controller, cyc int64) {
	t.Helper()
	r := d.r
	for app := range d.addr {
		// Bursty arrivals: mostly keep a deep backlog, sometimes go idle.
		limit := 6
		if r.Intn(37) == 0 {
			limit = 0
		}
		for c.PendingFor(app) < limit {
			a, ad := app, d.addr[app]
			req := &mem.Request{App: app, Addr: ad}
			if r.Intn(4) == 0 {
				req.Write = true
			} else {
				req.Done = func(cycle int64) {
					d.done = append(d.done, issueRec{cycle, a, ad, false})
				}
			}
			if !c.Access(cyc, req) {
				break
			}
			switch r.Intn(3) {
			case 0: // row-local: next line in the same row
				d.addr[app] += 64
			case 1: // small stride, likely same bank different row
				d.addr[app] += uint64(64 * (1 + r.Intn(64)))
			default: // long jump across banks
				d.addr[app] += uint64(1) << (12 + r.Intn(10))
			}
		}
	}
	c.Tick(cyc)
	checkQueuedWrites(t, c, cyc)
}

// drain ticks c from cycle from until nothing is queued or in flight, so
// the completion trace covers every issued access.
func (d *diffDriver) drain(t *testing.T, c *Controller, from int64) {
	t.Helper()
	for cyc := from; c.queued != 0 || len(c.completions) != 0; cyc++ {
		c.Tick(cyc)
		checkQueuedWrites(t, c, cyc)
	}
}

// diffDrive runs one controller against the workload derived from seed and
// returns its issue trace, completion trace, and final stats.
func diffDrive(t *testing.T, c *Controller, numApps int, seed int64, cycles int64) (issues []issueRec, done []issueRec, stats []AppStats) {
	t.Helper()
	d := newDiffDriver(numApps, seed)
	d.attach(c)
	for cyc := int64(0); cyc < cycles; cyc++ {
		d.step(t, c, cyc)
	}
	d.drain(t, c, cycles)
	return d.issues, d.done, c.stats
}

// TestIndexedPickMatchesReference drives, for every scheduler, page policy
// and app count, one controller under the scheduler for a phase, swaps in
// the next policy of the table with requests queued, drives two more phases
// and drains. The queued-write counters behind WriteDrain's watermark must
// equal a full-queue count after every driven cycle, and every issued access
// must retire exactly once: as many completions as issues per app, each
// counted once in Stats.
func TestIndexedPickMatchesReference(t *testing.T) {
	const phase = int64(12_000)
	for _, policy := range []dram.PagePolicy{dram.OpenPage, dram.ClosePage} {
		for _, numApps := range []int{2, 5} {
			scheds := diffSchedulers(numApps)
			for si, sc := range scheds {
				next := scheds[(si+1)%len(scheds)]
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/policy=%v/apps=%d/seed=%d", sc.name, policy, numApps, seed)
					t.Run(name, func(t *testing.T) {
						swapDriveMatrix(t, policy, numApps, seed, phase, sc.mk(t), next.mk(t))
					})
				}
			}
		}
	}
}

// swapDriveMatrix is one cell of TestIndexedPickMatchesReference.
func swapDriveMatrix(t *testing.T, policy dram.PagePolicy, numApps int, seed, phase int64, first, swap Scheduler) {
	t.Helper()
	c, err := New(testDevice(t, policy), numApps, 0, first)
	if err != nil {
		t.Fatal(err)
	}
	d := newDiffDriver(numApps, seed)
	d.attach(c)
	cyc := int64(0)
	for ; cyc < phase; cyc++ {
		d.step(t, c, cyc)
	}
	if c.queued == 0 {
		t.Fatal("nothing queued at the swap — workload broken")
	}
	if err := c.SetScheduler(swap); err != nil {
		t.Fatal(err)
	}
	for ; cyc < 3*phase; cyc++ {
		d.step(t, c, cyc)
	}
	d.drain(t, c, cyc)
	if len(d.issues) == 0 {
		t.Fatal("controller issued nothing — workload broken")
	}
	perApp := func(recs []issueRec) []int64 {
		n := make([]int64, numApps)
		for _, rec := range recs {
			n[rec.app]++
		}
		return n
	}
	issued, retired := perApp(d.issues), perApp(d.retired)
	for app, st := range c.stats {
		if retired[app] != issued[app] || st.Served() != issued[app] {
			t.Fatalf("app %d: %d accesses issued, %d retired, %d served", app, issued[app], retired[app], st.Served())
		}
	}
}

// TestIndexedSchedulerSwapRebuilds pins the picks across scheduler swaps
// with queued requests retained: FCFS, then StartTimeFair, FR-FCFS and
// write-drain over FR-FCFS installed mid-run, the issue trace held to the
// digest recorded in testdata/issue_digests.json.
func TestIndexedSchedulerSwapRebuilds(t *testing.T) {
	want := readIssueDigests(t)
	for _, policy := range []dram.PagePolicy{dram.OpenPage, dram.ClosePage} {
		t.Run(fmt.Sprintf("policy=%v", policy), func(t *testing.T) {
			issues := swapDrive(t, policy)
			key := "swap/" + policy.String()
			if got := traceDigest(issues, nil); got != want[key] {
				t.Errorf("trace digest %s, recorded %q", got, want[key])
			}
		})
	}
}

// swapDrive runs a three-app controller for 30k cycles, swapping the
// scheduler at 8k, 16k and 24k, and returns the issue trace.
func swapDrive(t *testing.T, policy dram.PagePolicy) []issueRec {
	t.Helper()
	const numApps = 3
	c, err := New(testDevice(t, policy), numApps, 0, NewFCFS())
	if err != nil {
		t.Fatal(err)
	}
	var issues []issueRec
	c.SetTracer(func(cycle int64, app int, addr uint64, write bool) {
		issues = append(issues, issueRec{cycle, app, addr, write})
	})
	r := rand.New(rand.NewSource(99))
	addr := [numApps]uint64{0, 1 << 41, 2 << 41}
	for cyc := int64(0); cyc < 30_000; cyc++ {
		var swap Scheduler
		switch cyc {
		case 8_000:
			swap, err = NewStartTimeFair([]float64{0.5, 0.3, 0.2})
		case 16_000:
			swap = NewFRFCFS(6)
		case 24_000:
			swap, err = NewWriteDrain(NewFRFCFS(6), 10, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		if swap != nil {
			if err := c.SetScheduler(swap); err != nil {
				t.Fatal(err)
			}
		}
		for app := 0; app < numApps; app++ {
			for c.PendingFor(app) < 5 {
				req := &mem.Request{App: app, Addr: addr[app], Write: r.Intn(5) == 0}
				if !c.Access(cyc, req) {
					break
				}
				addr[app] += uint64(64 * (1 + r.Intn(32)))
			}
		}
		c.Tick(cyc)
		checkQueuedWrites(t, c, cyc)
	}
	return issues
}

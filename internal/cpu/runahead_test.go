package cpu

import (
	"fmt"
	"math/rand"
	"testing"

	"bwpart/internal/mem"
)

// probedL1 is a twinL1 answering hits in place that also issues accesses
// only as hits, so a core over it may run ahead.
type probedL1 struct{ *twinL1 }

// AccessResident implements mem.ResidencyProber with twinL1's hit rule.
// Stores are always accepted by Access, but only accesses to resident lines
// are taken here: a store to another line stops a span like a miss would.
func (p probedL1) AccessResident(now int64, req *mem.Request) bool {
	return (req.Addr/64)%4 != 0 && p.Access(now, req)
}

// driveAhead runs the core of driveTwin over port the way the simulation
// kernel does: the core ticks only when due — at its NextEventCycle, or when
// a completion wakes it, after the port's own tick in the same cycle — and
// after every Tick runs ahead to a horizon at the port's next completion,
// gap cycles on at most. Slept cycles are integrated through SkipSpan. It
// returns the core's counters, the cycles it ran ahead, and its spans by
// stop reason.
func driveAhead(t *testing.T, seed int64, port *twinL1, cycles, gap int64) (Stats, int64, map[Stop]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{
		Width:               1 + rng.Intn(8),
		ROBSize:             8 + rng.Intn(120),
		BaseIPC:             0.15 + rng.Float64()*3,
		MaxOutstandingLoads: 1 + rng.Intn(3),
	}
	c, err := New(cfg, 0, probedL1{port}, &rehitStream{rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	var now, from, wake, ahead int64
	stops := map[Stop]int{}
	w := mem.NewWaker(func() {
		c.SkipSpan(from, now)
		from, wake = now, now
	})
	c.SetWaker(w)
	for ; now < cycles; now++ {
		port.tick(now)
		if wake > now {
			continue
		}
		w.SetAsleep(false)
		c.SkipSpan(from, now)
		c.Tick(now)
		h := min(now+1+gap, cycles)
		if len(port.due) > 0 {
			h = min(h, port.due[0].at)
		}
		n, why, next, ok := c.RunAhead(h)
		ahead += n
		stops[why]++
		if want, wantOK := c.NextEventCycle(now); next != want || ok != wantOK {
			t.Fatalf("cycle %d: RunAhead's wake (%d, %v), NextEventCycle's (%d, %v)", now, next, ok, want, wantOK)
		}
		if ok && next > now+1 {
			w.SetAsleep(true)
		} else {
			next = now + 1
		}
		from, wake = now+1, next
	}
	c.SkipSpan(from, cycles)
	return c.Stats(), ahead, stops
}

// TestRunAheadMatchesTick pins RunAhead on the core alone: a core that runs
// its own cycles ahead up to the next completion of its L1, and sleeps
// through them, must end with exactly the counters of the same core ticked
// every cycle. A Done that reached the core inside a cycle it had already
// run would panic in Tick. The seeds cover every stop reason but the
// refresh (TestKernelRunAheadStops covers that on a phased stream).
func TestRunAheadMatchesTick(t *testing.T) {
	var ahead int64
	stops := map[Stop]int{}
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 7919))
			hitLat, missLat := int64(rng.Intn(6)), int64(20+rng.Intn(200))
			mshrs := 1 + rng.Intn(4)
			gap := 1 + int64(rng.Intn(300))
			const cycles = 6_000
			want, _ := driveTwin(t, seed, &twinL1{inPlace: true, hitLat: hitLat, missLat: missLat, mshrs: mshrs}, cycles)
			got, n, why := driveAhead(t, seed, &twinL1{inPlace: true, hitLat: hitLat, missLat: missLat, mshrs: mshrs}, cycles, gap)
			if got != want {
				t.Errorf("stats diverge\nper cycle %+v\nrun ahead %+v", want, got)
			}
			ahead += n
			for k, v := range why {
				stops[k] += v
			}
		})
	}
	if ahead == 0 || stops[StopMiss] == 0 || stops[StopStall] == 0 || stops[StopHorizon] == 0 {
		t.Errorf("the seeds never ran ahead or missed a stop reason: %d cycles ahead, stops %v", ahead, stops)
	}
}

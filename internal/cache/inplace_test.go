package cache

import (
	"math"
	"testing"

	"bwpart/internal/mem"
)

// doneOnly forwards to a cache with every request's InPlace cleared for the
// call, so the cache completes it through Done: the path an L1's fills took
// before a private L2 answered them in place.
type doneOnly struct{ c *Cache }

func (p doneOnly) Access(now int64, req *mem.Request) bool {
	inPlace := req.InPlace
	req.InPlace = false
	ok := p.c.Access(now, req)
	req.InPlace = inPlace
	return ok
}

// sleepingWaker returns a handle marked asleep and the count of its rouses.
func sleepingWaker() (*mem.Waker, *int) {
	n := new(int)
	w := mem.NewWaker(func() { *n++ })
	w.SetAsleep(true)
	return w, n
}

// privatePair builds the paper's L1 over its private L2 over a fake memory;
// through, if non-nil, sits between the two (doneOnly).
func privatePair(t *testing.T, through func(*Cache) mem.Port) (l1, l2 *Cache) {
	t.Helper()
	l2, err := New(L2(), &fakeLower{delay: 100})
	if err != nil {
		t.Fatal(err)
	}
	var lower mem.Port = l2
	if through != nil {
		lower = through(l2)
	}
	l1, err = New(L1D(), lower)
	if err != nil {
		t.Fatal(err)
	}
	return l1, l2
}

// tickPair ticks the L2 before its L1 on every cycle of [from, to), the
// order the simulation kernel keeps.
func tickPair(l1, l2 *Cache, from, to int64) {
	for now := from; now < to; now++ {
		l2.Tick(now)
		l1.Tick(now)
	}
}

// TestL2HitAnsweredInPlace: an L1 miss that hits the private L2 schedules
// nothing in the L2 and does not wake it, and the L1 completes the fill
// from its own tick at send + the L2's HitLatency, the cycle the L2's Done
// delivered it at when the fill did not opt in.
func TestL2HitAnsweredInPlace(t *testing.T) {
	const addr = 0x7000
	send := L1D().HitLatency
	for _, tc := range []struct {
		name    string
		through func(*Cache) mem.Port
	}{{"in-place", nil}, {"done", func(c *Cache) mem.Port { return doneOnly{c} }}} {
		t.Run(tc.name, func(t *testing.T) {
			l1, l2 := privatePair(t, tc.through)
			l2.Touch(addr, false)
			w, rouses := sleepingWaker()
			l2.SetWaker(w)
			doneAt := int64(-1)
			l1.Access(0, &mem.Request{Addr: addr, Done: func(c int64) { doneAt = c }})
			if got := l1.NextFill(L2().HitLatency); got != send+L2().HitLatency {
				t.Errorf("before the send: NextFill %d, want %d", got, send+L2().HitLatency)
			}
			tickPair(l1, l2, 0, send+1)
			inPlace := tc.through == nil
			if events := len(l2.events.pending()); inPlace != (events == 0) {
				t.Errorf("after the send the L2 holds %d events", events)
			}
			if inPlace != (*rouses == 0) {
				t.Errorf("the L2 was roused %d times", *rouses)
			}
			if pending := len(l1.fills.pending()); inPlace != (pending == 1) {
				t.Errorf("the L1 holds %d answered fills", pending)
			}
			if inPlace {
				if got := l1.NextFill(L2().HitLatency); got != send+L2().HitLatency {
					t.Errorf("after the send: NextFill %d, want %d", got, send+L2().HitLatency)
				}
				if next, ok := l1.NextEventCycle(send); !ok || next != send+L2().HitLatency {
					t.Errorf("after the send: NextEventCycle %d, %v", next, ok)
				}
			}
			tickPair(l1, l2, send+1, 100)
			if want := send + L2().HitLatency; doneAt != want {
				t.Errorf("fill completed at %d, want %d", doneAt, want)
			}
			if st := l2.Stats(); st.Hits != 1 || st.Misses != 0 {
				t.Errorf("L2 stats %+v", st)
			}
			if !l1.Idle() || !l2.Idle() {
				t.Error("a cache still holds a request")
			}
		})
	}
}

// TestL2WritebackHitRecycled: a dirty victim's writeback that hits the
// private L2 is answered in place and back in the L1's pool at once, and the
// L2 holds no event for it.
func TestL2WritebackHitRecycled(t *testing.T) {
	l1, l2 := privatePair(t, nil)
	// Three lines of one L1 set (2 ways, 256 sets of 64 B): the first two
	// fill the set, the first dirty; the third evicts it. Touch puts all
	// three in the L2 as well.
	const stride = 256 * 64
	l1.Touch(0, true)
	l1.Touch(stride, false)
	l2.Touch(2*stride, false)
	l1.Access(0, &mem.Request{Addr: 2 * stride, Done: func(int64) {}})
	fillAt := L1D().HitLatency + L2().HitLatency
	tickPair(l1, l2, 0, fillAt)
	if len(l1.wbs.free) != 0 {
		t.Fatal("a writeback went out before the fill")
	}
	tickPair(l1, l2, fillAt, fillAt+1)
	if st := l1.Stats(); st.Writebacks != 1 {
		t.Fatalf("L1 stats %+v, want one writeback", st)
	}
	if len(l1.wbs.free) != 1 {
		t.Errorf("the writeback is not back in the pool: %d free", len(l1.wbs.free))
	}
	if n := len(l2.events.pending()); n != 0 {
		t.Errorf("the L2 holds %d events", n)
	}
	if _, i := l2.lookup(0); i < 0 || l2.meta[i]&metaDirty == 0 {
		t.Error("the L2's copy of the victim is not dirty")
	}
	if !l1.Idle() || !l2.Idle() {
		t.Error("a cache still holds a request")
	}
}

// TestAnsweredFillIsNotIdle: a fill the L2 answered in place is a request
// the L1 holds until it completes, so the L1 is not idle, and a system
// refuses a checkpoint of it (sim.System.Snapshot), until then.
func TestAnsweredFillIsNotIdle(t *testing.T) {
	l1, l2 := privatePair(t, nil)
	l2.Touch(0x40, false)
	l1.Access(0, &mem.Request{Addr: 0x40, Done: func(int64) {}})
	fillAt := L1D().HitLatency + L2().HitLatency
	tickPair(l1, l2, 0, fillAt)
	if len(l1.fills.pending()) != 1 || l1.Idle() {
		t.Fatalf("%d answered fills pending, Idle %v", len(l1.fills.pending()), l1.Idle())
	}
	tickPair(l1, l2, fillAt, fillAt+1)
	if !l1.Idle() {
		t.Error("the L1 is not idle once its fill completed")
	}
}

// TestSharedL2CompletesThroughDone: a shared L2 answers nothing in place;
// its hit schedules the L1's fill on its own event list and delivers it
// through Done from its tick.
func TestSharedL2CompletesThroughDone(t *testing.T) {
	shared, err := NewShared(L2(), 2, []int{4, 4}, &fakeLower{delay: 100})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := New(L1D(), shared.PortFor(1))
	if err != nil {
		t.Fatal(err)
	}
	shared.TouchAs(1, 0x40, false)
	doneAt := int64(-1)
	l1.Access(0, &mem.Request{Addr: 0x40, Done: func(c int64) { doneAt = c }})
	send := L1D().HitLatency
	for now := int64(0); now <= send; now++ {
		shared.Tick(now)
		l1.Tick(now)
	}
	if len(l1.fills.pending()) != 0 || len(shared.events.pending()) != 1 {
		t.Fatalf("%d answered fills in the L1, %d events in the shared L2", len(l1.fills.pending()), len(shared.events.pending()))
	}
	for now := send + 1; now < 100; now++ {
		shared.Tick(now)
		l1.Tick(now)
	}
	if want := send + L2().HitLatency; doneAt != want {
		t.Errorf("fill completed at %d, want %d", doneAt, want)
	}
	if st := shared.StatsFor(1); st.Hits != 1 {
		t.Errorf("shared L2 stats %+v", st)
	}
}

// TestNextFill checks each term of the L1's next possible fill: an
// answered fill at its cycle, a pending send plus the lower level's hit
// latency, and a pending callback at its own cycle, whichever is first.
func TestNextFill(t *testing.T) {
	c, _ := newTestCache(t)
	if got := c.NextFill(25); got != math.MaxInt64 {
		t.Errorf("an empty cache: NextFill %d", got)
	}
	c.events.scheduleSend(5, &mem.Request{})
	c.events.scheduleSend(8, &mem.Request{})
	if got := c.NextFill(25); got != 30 {
		t.Errorf("sends at 5 and 8: NextFill %d, want 30", got)
	}
	c.events.scheduleDone(9, &mem.Request{})
	if got := c.NextFill(25); got != 9 {
		t.Errorf("and a callback at 9: NextFill %d, want 9", got)
	}
	c.fills.scheduleDone(7, &mem.Request{})
	if got := c.NextFill(25); got != 7 {
		t.Errorf("and an answered fill at 7: NextFill %d, want 7", got)
	}
}

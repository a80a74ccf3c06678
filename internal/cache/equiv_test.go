package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bwpart/internal/mem"
)

// scriptLower is a lower level whose behaviour is a function of its own call
// sequence only: it refuses each Access with a fixed probability drawn from
// its private RNG, completes accepted requests after a drawn delay, and
// records everything it was asked. Two caches that issue the same calls see
// the same answers, so any divergence between them is their own.
type scriptLower struct {
	rng     *rand.Rand
	log     []string // every Access: cycle, addr, write, app, verdict
	refused int
	pending []scriptDone
}

type scriptDone struct {
	due  int64
	done func(int64)
}

func (l *scriptLower) Access(now int64, req *mem.Request) bool {
	ok := l.rng.Intn(4) != 0
	l.log = append(l.log, fmt.Sprintf("%d %#x w=%t app=%d ok=%t", now, req.Addr, req.Write, req.App, ok))
	if !ok {
		l.refused++
		return false
	}
	if req.Done != nil {
		l.pending = append(l.pending, scriptDone{due: now + 1 + int64(l.rng.Intn(12)), done: req.Done})
	}
	return true
}

// deliver completes, in acceptance order, every request due by now.
func (l *scriptLower) deliver(now int64) {
	kept := l.pending[:0]
	for _, p := range l.pending {
		if p.due <= now {
			p.done(now)
		} else {
			kept = append(kept, p)
		}
	}
	l.pending = kept
}

// equivPort is what the equivalence drive needs of either cache.
type equivPort interface {
	mem.Port
	Tick(now int64)
}

// driveEquiv runs the seed's op sequence against c over its lower level and
// returns the observable history: per op the accept / reject verdict and the
// completion cycle (-1 for posted stores and refused ops).
func driveEquiv(seed int64, c equivPort, low *scriptLower) (verdicts []bool, completed []int64) {
	r := rand.New(rand.NewSource(seed))
	const ops = 3000
	completed = make([]int64, ops)
	for i := range completed {
		completed[i] = -1
	}
	now := int64(0)
	for i := 0; i < ops; i++ {
		// 48 lines over 4 sets x 4 ways: conflict misses and dirty victims;
		// bursts of same-cycle ops to one line make merges.
		req := &mem.Request{Addr: uint64(r.Intn(48))*64 + uint64(r.Intn(64)), Write: r.Intn(3) == 0}
		if !req.Write || r.Intn(2) == 0 {
			req.Done = func(cycle int64) { completed[i] = cycle }
		}
		verdicts = append(verdicts, c.Access(now, req))
		for adv := r.Intn(3); adv > 0; adv-- {
			now++
			low.deliver(now)
			c.Tick(now)
		}
	}
	for end := now + 200; now < end; {
		now++
		low.deliver(now)
		c.Tick(now)
	}
	return verdicts, completed
}

// TestSharedWithOneAppIsPrivate: a SharedCache whose single application holds
// every way has no partition to enforce, so it must be observationally a
// private Cache without a prefetcher — same accept / reject sequence, same
// completion cycles, same read and write streams at the lower level, same
// counters. The two share the engine (sets, MSHRs, events, deferred sends)
// but not the victim choice or the accounting, which is what this compares:
// victimFor against lruVictim, owner-attributed against waiter-attributed
// writebacks, the per-app MSHR cap against the global one.
func TestSharedWithOneAppIsPrivate(t *testing.T) {
	cfg := Config{Name: "E", SizeBytes: 1024, Ways: 4, LineBytes: 64, HitLatency: 2, MSHRs: 3}
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			pLow := &scriptLower{rng: rand.New(rand.NewSource(seed * 7919))}
			sLow := &scriptLower{rng: rand.New(rand.NewSource(seed * 7919))}
			priv, err := New(cfg, pLow)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := NewShared(cfg, 1, []int{cfg.Ways}, sLow)
			if err != nil {
				t.Fatal(err)
			}
			pVerdicts, pDone := driveEquiv(seed, priv, pLow)
			sVerdicts, sDone := driveEquiv(seed, shared, sLow)

			if !reflect.DeepEqual(pVerdicts, sVerdicts) {
				t.Error("accept / reject sequences differ")
			}
			if !reflect.DeepEqual(pDone, sDone) {
				t.Error("completion cycles differ")
			}
			if !reflect.DeepEqual(pLow.log, sLow.log) {
				t.Errorf("lower-level streams differ (private %d calls, shared %d)", len(pLow.log), len(sLow.log))
			}
			ps, ss := priv.Stats(), shared.StatsFor(0)
			if ps != ss {
				t.Errorf("stats differ\nprivate: %+v\nshared:  %+v", ps, ss)
			}
			if len(priv.mshrs) != 0 || len(pLow.pending) != 0 {
				t.Errorf("private cache did not drain: %d misses, %d lower-level requests in flight",
					len(priv.mshrs), len(pLow.pending))
			}
			// The comparison must not pass vacuously.
			if ps.Rejects == 0 || ps.MSHRMerges == 0 || ps.Writebacks == 0 || pLow.refused == 0 {
				t.Errorf("run too tame to compare: %+v, %d lower-level refusals", ps, pLow.refused)
			}
		})
	}
}

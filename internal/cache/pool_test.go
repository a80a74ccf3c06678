package cache

import (
	"testing"

	"bwpart/internal/mem"
)

// TestCacheEventsFIFO drives the event list through interleaved pushes and
// drains — including the slide that reuses the array while events are
// pending — and checks that every event comes out once, in push order, only
// when due; and that an event due before the tail is refused.
func TestCacheEventsFIFO(t *testing.T) {
	var q cacheEvents
	reqs := make([]mem.Request, 64)
	var pushed, popped []*mem.Request
	cycle, at := int64(0), int64(0) // now, and the tail's due cycle
	for round := 0; round < 200; round++ {
		for k := 0; k < round%5; k++ {
			at = max(at, cycle) + int64(k%2)
			r := &reqs[len(pushed)%len(reqs)]
			q.scheduleSend(at, r)
			pushed = append(pushed, r)
		}
		cycle += int64(round % 3)
		for {
			ev, ok := q.due(cycle - 1)
			if !ok {
				break
			}
			if ev.cycle > cycle-1 || !ev.send {
				t.Fatalf("round %d: popped %+v at cycle %d", round, ev, cycle-1)
			}
			popped = append(popped, ev.req)
		}
		if next, ok := q.next(); ok && next <= cycle-1 {
			t.Fatalf("round %d: event due at %d left pending at %d", round, next, cycle-1)
		}
		if len(q.pending())+len(popped) != len(pushed) {
			t.Fatalf("round %d: %d pending + %d popped != %d pushed", round, len(q.pending()), len(popped), len(pushed))
		}
	}
	for {
		ev, ok := q.due(cycle + 10)
		if !ok {
			break
		}
		popped = append(popped, ev.req)
	}
	if len(popped) != len(pushed) {
		t.Fatalf("popped %d of %d events", len(popped), len(pushed))
	}
	for i := range pushed {
		if popped[i] != pushed[i] {
			t.Fatalf("event %d out of push order", i)
		}
	}

	q.scheduleDone(100, &reqs[0])
	defer func() {
		if recover() == nil {
			t.Error("an event due before the tail was accepted")
		}
	}()
	q.scheduleDone(99, &reqs[1])
}

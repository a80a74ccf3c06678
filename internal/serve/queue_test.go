package serve

import "testing"

// TestFairQueueRemove: removing queued jobs — the last of a client's, one of
// several, a client ahead of the round-robin cursor — keeps the depth and the
// round-robin order of what is left.
func TestFairQueueRemove(t *testing.T) {
	q := newFairQueue(10)
	mk := func(client string) *job { return &job{id: client, client: client} }
	a1, a2, b, c, d := mk("a"), mk("a"), mk("b"), mk("c"), mk("d")
	for _, j := range []*job{a1, a2, b, c, d} {
		if !q.push(j) {
			t.Fatal("push refused")
		}
	}
	if j, _ := q.pop(); j != a1 { // the cursor moves on to b
		t.Fatalf("first pop = %v, want a1", j.id)
	}
	if !q.remove(a2) || !q.remove(c) {
		t.Fatal("queued jobs not found")
	}
	if q.remove(a1) || q.remove(c) {
		t.Error("a dispatched or already removed job was removed")
	}
	if q.size() != 2 {
		t.Errorf("depth %d, want 2", q.size())
	}
	for _, want := range []*job{b, d} {
		if j, ok := q.pop(); !ok || j != want {
			t.Errorf("pop = %v, want %s", j, want.id)
		}
	}
	if q.size() != 0 || len(q.order) != 0 || len(q.perClient) != 0 {
		t.Errorf("queue not empty: depth %d, order %v", q.size(), q.order)
	}
}

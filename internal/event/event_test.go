package event

import "testing"

func TestZeroValueUsable(t *testing.T) {
	var q Queue
	if len(q.h) != 0 {
		t.Fatal("zero queue not empty")
	}
	q.RunUntil(100) // must not panic
}

func TestRunUntilOrder(t *testing.T) {
	var q Queue
	var got []int
	q.At(30, func() { got = append(got, 30) })
	q.At(10, func() { got = append(got, 10) })
	q.At(20, func() { got = append(got, 20) })
	q.RunUntil(25)
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("got %v, want [10 20]", got)
	}
	q.RunUntil(30)
	if len(got) != 3 || got[2] != 30 {
		t.Fatalf("got %v", got)
	}
}

func TestSameCycleFIFO(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		q.At(5, func() { got = append(got, i) })
	}
	q.RunUntil(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events out of insertion order at %d: %v", i, v)
		}
	}
}

func TestEventSchedulesEvent(t *testing.T) {
	var q Queue
	var got []string
	q.At(10, func() {
		got = append(got, "a")
		q.At(15, func() { got = append(got, "b") })
		q.At(100, func() { got = append(got, "late") })
	})
	q.RunUntil(20)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
	if len(q.h) != 1 {
		t.Fatalf("late event lost: len=%d", len(q.h))
	}
}

func TestPastEventFiresOnNextRun(t *testing.T) {
	var q Queue
	fired := false
	q.At(-5, func() { fired = true })
	q.RunUntil(0)
	if !fired {
		t.Fatal("past-scheduled event did not fire")
	}
}

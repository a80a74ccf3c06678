package main

import (
	"testing"
	"time"

	"bwpart/internal/workload"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100) > a [10,40) > a1 [15,25); root > b [50,90); lone [200,230)
	spans := []span{
		{Name: "root", ID: 0, Parent: -1, StartNS: 0, EndNS: 100},
		{Name: "a", ID: 1, Parent: 0, StartNS: 10, EndNS: 40},
		{Name: "leaf", ID: 2, Parent: 1, StartNS: 15, EndNS: 25},
		{Name: "b", ID: 3, Parent: 0, StartNS: 50, EndNS: 90},
		{Name: "leaf", ID: 4, Parent: -1, StartNS: 200, EndNS: 230},
	}
	want := []int64{30, 20, 10, 40, 30}
	self := selfTimes(spans)
	var sum int64
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self[%s #%d] = %d, want %d", spans[i].Name, i, self[i], w)
		}
		sum += self[i]
	}
	// Self times partition the root spans' durations.
	if sum != 100+30 {
		t.Errorf("self times sum to %d, roots cover 130", sum)
	}
	stats := summarize(spans)
	if got := stats["leaf"]; got.Count != 2 || got.TotalMS != 40e-6 || got.SelfMS != 40e-6 {
		t.Errorf("leaf: %+v", got)
	}
	if got := stats["root"]; got.Count != 1 || got.SelfMS != 30e-6 {
		t.Errorf("root: %+v", got)
	}
	if got := durations(spans, "leaf"); len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Errorf("durations(leaf) = %v", got)
	}
}

func TestTracerNesting(t *testing.T) {
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("ignored")) // a nil tracer records nothing

	tr := newTracer("w")
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	sibling := tr.begin("sibling")
	tr.end(sibling)
	tr.end(outer)
	if len(tr.spans) != 3 || len(tr.open) != 0 {
		t.Fatalf("%d spans, %d still open", len(tr.spans), len(tr.open))
	}
	for _, s := range tr.spans {
		if s.Workload != "w" || s.EndNS < s.StartNS {
			t.Errorf("span %+v", s)
		}
	}
	if tr.spans[inner].Parent != outer || tr.spans[sibling].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
}

// TestReplayedCellAccounting checks the step-by-step replay against the
// engine: it must produce the engine's cell (same golden digest), its steps
// must account for the whole cell span, and the span must cost what an
// untraced Runner.RunMix of the same cold cell costs.
func TestReplayedCellAccounting(t *testing.T) {
	gold, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.AllMixes()[0]
	const scheme = "equal"

	// The fastest of three attempts on each side: host noise only ever adds.
	var replayNS, engineNS int64
	for attempt := 0; attempt < 3; attempt++ {
		r, err := profileAll(experConfig())
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer("test")
		run, err := replayCell(tr, r, mix, scheme)
		if err != nil {
			t.Fatal(err)
		}
		if err := gold.checkCell(1, run); err != nil {
			t.Fatalf("replayed cell: %v", err)
		}
		self := selfTimes(tr.spans)
		var cell, children int64
		for _, s := range tr.spans {
			if s.Name == "cell" {
				cell = s.dur()
			} else {
				children += self[s.ID]
			}
		}
		if len(tr.spans) != 1+len(cellSteps) {
			t.Fatalf("%d spans, want the cell and its %d steps", len(tr.spans), len(cellSteps))
		}
		if float64(children) < 0.95*float64(cell) || children > cell {
			t.Errorf("steps cover %d ns of the %d ns cell span", children, cell)
		}

		t0 := time.Now()
		engineRun, err := r.RunMix(mix, scheme)
		engine := int64(time.Since(t0))
		if err != nil {
			t.Fatal(err)
		}
		if err := gold.checkCell(1, engineRun); err != nil {
			t.Fatalf("engine cell: %v", err)
		}
		if attempt == 0 || cell < replayNS {
			replayNS = cell
		}
		if attempt == 0 || engine < engineNS {
			engineNS = engine
		}
	}
	if ratio := float64(replayNS) / float64(engineNS); ratio < 0.90 || ratio > 1.10 {
		t.Errorf("replayed cell %v vs Runner.RunMix %v: ratio %.3f outside 10%%",
			time.Duration(replayNS), time.Duration(engineNS), ratio)
	}
}

package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Parent is the id of the enclosing span (-1 at the root); spans of one
// run share Workload.
type span struct {
	Name     string `json:"name"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer records spans in memory from the harness's own goroutine. A nil
// *tracer records nothing, so untraced runs pay one branch per call site.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // ids of the currently open spans, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span under the innermost open span and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Workload: t.workload})
	t.open = append(t.open, id)
	t.spans[id].StartNS = int64(time.Since(t.t0))
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span id, the span's duration minus the part covered
// by its direct children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// spanStat aggregates the spans that share a name.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// summarize aggregates spans by name.
func summarize(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	out := make(map[string]spanStat)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.TotalMS += float64(s.dur()) / 1e6
		st.SelfMS += float64(self[s.ID]) / 1e6
		out[s.Name] = st
	}
	return out
}

// durations returns the durations, in nanoseconds, of every span called name.
func durations(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// writeSpans dumps the raw spans as a JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

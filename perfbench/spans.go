package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"scatteradd/internal/span"
)

// spanRec is one recorded span. Times are offsets from process start.
type spanRec struct {
	name       string
	start, end time.Duration
	parent     int    // index of the enclosing span, -1 at the top
	sim        int    // the simulation (point) within its pass, -1 outside one
	pass       int    // measured pass, or -1-k during set-up repeat k
	alloc      uint64 // heap bytes allocated while the span was open
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced passes pay one nil check per call.
type tracer struct {
	spans     []spanRec
	open      []int
	sim, pass int
	allocs    []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{sim: -1, allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

// at sets the pass and simulation the next spans belong to.
func (t *tracer) at(pass, sim int) {
	if t != nil {
		t.pass, t.sim = pass, sim
	}
}

func (t *tracer) allocated() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// begin opens a span nested in the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, spanRec{name: name, parent: parent, sim: t.sim, pass: t.pass, alloc: t.allocated()})
	t.spans[len(t.spans)-1].start = time.Since(processStart)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open one, and returns its
// duration.
func (t *tracer) end(i int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[i]
	s.end = time.Since(processStart)
	s.alloc = t.allocated() - s.alloc
	t.open = t.open[:len(t.open)-1]
	return s.end - s.start
}

// layerTotal is the summed self time and self allocation of the spans of
// one name.
type layerTotal struct {
	self  time.Duration
	alloc uint64
}

// selfTotals sums, per span name, the self time (duration minus the
// durations of child spans) and self allocation of the spans recorded
// during pass.
func (t *tracer) selfTotals(pass int) map[string]layerTotal {
	self := make([]layerTotal, len(t.spans))
	for i, s := range t.spans {
		self[i].self += s.end - s.start
		self[i].alloc += s.alloc
		if s.parent >= 0 {
			self[s.parent].self -= s.end - s.start
			self[s.parent].alloc -= s.alloc
		}
	}
	out := make(map[string]layerTotal)
	for i, s := range t.spans {
		if s.pass == pass {
			lt := out[s.name]
			lt.self += self[i].self
			lt.alloc += self[i].alloc
			out[s.name] = lt
		}
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" complete event, or "M"
// metadata).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every span once, as Chrome trace-event JSON checked
// against span.ValidateTraceJSON, to path (via a temporary file and
// rename).
func (t *tracer) writeChrome(path, process string) error {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]traceEvent, 0, len(t.spans)+1)
	events = append(events, traceEvent{Name: "process_name", Ph: "M", Pid: 1, Tid: 1,
		Args: map[string]any{"name": process}})
	for i, s := range t.spans {
		events = append(events, traceEvent{Name: s.name, Cat: "perfbench", Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.parent, "point": s.sim, "pass": s.pass, "alloc_bytes": s.alloc}})
	}
	data, err := json.Marshal(struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	if _, err := span.ValidateTraceJSON(data); err != nil {
		return fmt.Errorf("span file fails the trace-event schema: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

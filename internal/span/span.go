// Package span is the request-lifecycle layer of the observability stack:
// where internal/stats answers "how many" (counters aggregated over a run),
// span answers "where did the cycles of THIS operation go". A Tracer assigns
// each sampled memory operation an identity at address-generator issue and
// records its stage transitions (bank queue -> combining-store residency ->
// FPU -> cache -> DRAM -> reply) with cycle timestamps, alongside component
// activity spans (AG lanes, combining-store slots, cache misses, DRAM
// channel bursts, crossbar crossings).
//
// The contract is zero allocation and near-zero cost when disabled: every
// hook in the simulator is guarded by a nil check on the component's tracer
// pointer, and all Tracer methods are additionally safe on a nil receiver,
// so a machine without a tracer pays one predictable branch per hook.
// Tracing is sampling-based (1-in-N operations) so that even hot runs stay
// cheap and the exported traces stay small.
package span

import (
	"scatteradd/internal/mem"
)

// Stage identifies one segment of a memory operation's lifecycle. An op's
// time in a stage runs from the transition that entered it to the next
// transition (or the op's end); stages may be re-entered, in which case
// their durations accumulate.
type Stage uint8

const (
	// StageBankQ is time in the scatter-add unit's input queue (and, for
	// remote multinode requests, the destination node's inbox).
	StageBankQ Stage = iota
	// StageCS is combining-store residency: the operand sits in a slot
	// waiting to be picked by the FPU or merged with a peer.
	StageCS
	// StageFU is the floating-point/integer add in flight.
	StageFU
	// StageCache is a bypassed (non-scatter-add) reference in the cache
	// bank: input-queue wait plus tag lookup and hit service.
	StageCache
	// StageDRAM is a memory fetch in flight: MSHR residency through DRAM
	// access to line fill.
	StageDRAM
	// StageNet is a remote request crossing the multinode crossbar.
	StageNet
	// StageReply is the response path back to the address generator.
	StageReply

	numStages
)

var stageNames = [numStages]string{
	StageBankQ: "bank-queue",
	StageCS:    "combining-store",
	StageFU:    "fpu",
	StageCache: "cache",
	StageDRAM:  "dram",
	StageNet:   "network",
	StageReply: "reply",
}

// queueStage classifies each stage for the latency-attribution report:
// queueing stages are contention (time spent waiting for a resource),
// service stages are the resource itself doing work.
var queueStage = [numStages]bool{
	StageBankQ: true,
	StageCS:    true,
	StageFU:    false,
	StageCache: false,
	StageDRAM:  false,
	StageNet:   false,
	StageReply: true,
}

// String returns the stage's report name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Class returns "queue" for contention stages and "service" for stages
// that model a resource doing work.
func (s Stage) Class() string {
	if int(s) < len(queueStage) && queueStage[s] {
		return "queue"
	}
	return "service"
}

// Transition records an op entering a stage at a cycle.
type Transition struct {
	Stage Stage
	Cycle uint64
}

// Op is one sampled memory operation's completed lifecycle. ID is the
// request ID assigned at address-generator issue; Node qualifies it in
// multinode systems (0 for a single machine).
type Op struct {
	ID    uint64
	Node  int
	Kind  mem.Kind
	Addr  mem.Addr
	Start uint64
	End   uint64
	Trans []Transition
}

// StageCycles returns the cycles the op spent in each stage (durations of
// repeated visits accumulate) and the number of stages visited.
func (o *Op) StageCycles() ([numStages]uint64, int) {
	var cyc [numStages]uint64
	var seen [numStages]bool
	visited := 0
	for i, tr := range o.Trans {
		end := o.End
		if i+1 < len(o.Trans) {
			end = o.Trans[i+1].Cycle
		}
		if end > tr.Cycle {
			cyc[tr.Stage] += end - tr.Cycle
		}
		if !seen[tr.Stage] {
			seen[tr.Stage] = true
			visited++
		}
	}
	return cyc, visited
}

// Event is one component activity span: a named interval on a hardware
// track (an AG lane, a combining-store slot, a DRAM channel, a crossbar
// output). Async events may overlap on their track and are exported as
// Perfetto async slices; non-async events must be serialized per track.
type Event struct {
	Track string
	Name  string
	Start uint64
	End   uint64
	Async bool
}

type opKey struct {
	node int
	id   uint64
}

// Tracer collects sampled op lifecycles and component spans for one
// machine or multinode system. It is not safe for concurrent use; in
// parallel experiment sweeps each run owns its own Tracer. All methods
// are no-ops on a nil receiver.
type Tracer struct {
	rate   uint64
	count  uint64
	live   map[opKey]*Op
	ops    []Op
	events []Event
}

// New returns a Tracer that samples one in rate operations (rate < 1 is
// clamped to 1, i.e. trace everything).
func New(rate int) *Tracer {
	if rate < 1 {
		rate = 1
	}
	return &Tracer{rate: uint64(rate), live: make(map[opKey]*Op)}
}

// Rate returns the sampling rate (1 in N).
func (t *Tracer) Rate() int {
	if t == nil {
		return 0
	}
	return int(t.rate)
}

// SampleNext consumes one operation slot and reports whether that op
// should be traced. The first op is always sampled, then every rate-th.
func (t *Tracer) SampleNext() bool {
	if t == nil {
		return false
	}
	c := t.count
	t.count++
	return c%t.rate == 0
}

// OpBegin starts a sampled op's lifecycle at address-generator issue; the
// op enters StageBankQ. (node, id) must be unique among live ops.
func (t *Tracer) OpBegin(node int, id uint64, kind mem.Kind, addr mem.Addr, now uint64) {
	if t == nil {
		return
	}
	t.live[opKey{node, id}] = &Op{
		ID: id, Node: node, Kind: kind, Addr: addr, Start: now,
		Trans: []Transition{{Stage: StageBankQ, Cycle: now}},
	}
}

// Sampled reports whether (node, id) identifies a live sampled op.
// Components that need per-op state (e.g. a combining-store slot tagging
// its entry) use this to decide at acceptance time.
func (t *Tracer) Sampled(node int, id uint64) bool {
	if t == nil {
		return false
	}
	_, ok := t.live[opKey{node, id}]
	return ok
}

// OpStage records a live op entering a stage. Unsampled ops miss the live
// map and the call is a no-op, so hooks need no sampling checks.
func (t *Tracer) OpStage(node int, id uint64, s Stage, now uint64) {
	if t == nil {
		return
	}
	op, ok := t.live[opKey{node, id}]
	if !ok {
		return
	}
	op.Trans = append(op.Trans, Transition{Stage: s, Cycle: now})
}

// OpEnd completes a live op's lifecycle; a no-op for unsampled ids.
func (t *Tracer) OpEnd(node int, id uint64, now uint64) {
	if t == nil {
		return
	}
	k := opKey{node, id}
	op, ok := t.live[k]
	if !ok {
		return
	}
	op.End = now
	t.ops = append(t.ops, *op)
	delete(t.live, k)
}

// Span records a serialized component activity interval on a track.
func (t *Tracer) Span(track, name string, start, end uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Track: track, Name: name, Start: start, End: end})
}

// SpanAsync records a component interval that may overlap others on the
// same track (e.g. concurrent cache misses in one bank).
func (t *Tracer) SpanAsync(track, name string, start, end uint64) {
	if t == nil {
		return
	}
	t.events = append(t.events, Event{Track: track, Name: name, Start: start, End: end, Async: true})
}

// Ops returns the completed sampled ops in completion order.
func (t *Tracer) Ops() []Op {
	if t == nil {
		return nil
	}
	return t.ops
}

// Live returns the number of ops begun but not yet ended (should be zero
// after a drained run).
func (t *Tracer) Live() int {
	if t == nil {
		return 0
	}
	return len(t.live)
}

// Events returns the recorded component spans in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Reset discards all recorded ops, events, and live lifecycles but keeps
// the sampling rate and counter phase.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.ops = t.ops[:0]
	t.events = t.events[:0]
	for k := range t.live {
		delete(t.live, k)
	}
}

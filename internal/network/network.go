// Package network models the multi-node interconnect of §4.5: "an
// input-queued crossbar with back-pressure", with a configurable per-node
// bandwidth limit (the paper's low configuration is 1 word/cycle per node,
// the high configuration 8 words/cycle).
//
// Every fabric carries one concrete Packet: a scatter-add request (or a
// link-layer acknowledgment) plus the sequence numbers and ports the
// reliability layers and switches need. A packet occupies one word-slot of
// its input port's bandwidth per cycle of transfer.
//
// Beyond the paper's flat crossbar, MultiHop (multihop.go) composes many
// small Crossbar switches into a k-ary tree or 2D mesh with optional
// Ultracomputer-style in-switch combining and per-hop reliability. Both
// fabrics satisfy the Fabric interface that internal/multinode programs
// against, and both reliability layers — the multinode end-to-end link and
// the per-hop link inside MultiHop — keep their unacknowledged packets in a
// RetransmitBuffer (retransmit.go).
package network

import (
	"fmt"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/sim"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// Packet is one message in flight. The multi-node system sends scatter-add
// requests to their owners and, under network faults, acknowledgments back.
// Endpoints are 32-bit and the switch input port 16-bit so that the whole
// packet stays at 72 bytes. A fabric copies a packet into its slab at Send
// and out of it at Recv; in between its queues pass a handle to it.
type Packet struct {
	Src, Dst int32       // endpoints
	Req      mem.Request // the request carried (unused by acknowledgments)
	Seq      uint64      // end-to-end link sequence number (0 = unsequenced)

	hopSeq uint64 // per-hop sequence number inside a switch (0 = unsequenced)
	out    int32  // crossbar output port the packet is queued for
	in     uint16 // switch input port holding the hop retransmission copy

	Ack bool // link acknowledgment of Seq
}

// Config describes the crossbar.
type Config struct {
	Nodes        int
	WordsPerCyc  int // per-port bandwidth in packets per cycle
	InputQDepth  int // per-input queue entries
	OutputQDepth int // per-output queue entries
	Latency      int // router + wire latency in cycles

	// WireDepth caps each output's in-flight Delay backing. 0 keeps the
	// always-sufficient Nodes*WordsPerCyc*(Latency+1)+1, under which the
	// wire never back-pressures; kilo-port flat crossbars set a small depth
	// to bound memory (a 1024-port crossbar would otherwise hold ~10M
	// slots). Packets beyond the depth wait in their input queues —
	// ordinary back-pressure that only changes timing once the output side
	// is already saturated.
	WireDepth int
}

// DefaultConfig returns an 8-node crossbar at the paper's low bandwidth.
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, WordsPerCyc: 1, InputQDepth: 16, OutputQDepth: 16, Latency: 8}
}

// Stats aggregates fabric activity. The flat Crossbar and the MultiHop
// switch graph fill the same struct so callers compare topologies uniformly.
type Stats struct {
	Sent      uint64 // packets accepted at injection ports
	Delivered uint64 // packets popped at destination ports
	Grants    uint64 // input-to-output grants issued by the crossbar arbiters
	Stalled   uint64 // cycles an input head packet could not traverse
	Dropped   uint64 // packets lost to injected wire faults
	Duped     uint64 // packets duplicated by injected wire faults

	// Topology-level traffic accounting. A flat crossbar is a single
	// switch, so every accepted packet is one hop and one root crossing;
	// the multi-hop fabrics count per-switch link traversals and
	// root/bisection crossings — the congestion metrics of the 16→1024-node
	// scale-out figure.
	Hops       uint64 // switch traversals (flat: == Sent)
	RootPkts   uint64 // packets through the tree root / across the mesh bisection (flat: == Sent)
	Combined   uint64 // packets absorbed by in-switch combining (flat: 0)
	HopRetrans uint64 // per-hop retransmissions after ack timeout (multi-hop under faults)
	HopDups    uint64 // duplicate hop frames discarded by receiver dedup
}

// Fabric is the interconnect contract internal/multinode programs against;
// the flat Crossbar and the MultiHop switch graph both satisfy it. Sends,
// peeks, and receives happen in the system's sequential phases; Tick
// advances one cycle; NextEvent reports the next cycle with work, so
// quiescence fast-forward works across any topology. A fast-forward jump
// only moves the caller's clock: the one per-cycle effect of a cycle in
// which nothing moves, a sleeping MultiHop switch's stall count, is
// credited by the fabric itself (see MultiHop.Tick). Arrivals is the set a
// scheduler reads to wake idle endpoints: a bitset, bit dst of word dst/64
// set while a packet waits at dst. The fabric keeps it as packets are
// delivered and received; the caller must not write it, and it changes only
// in Tick and Recv. Peek returns the waiting packet where it sits (nil when
// none), valid until the next Recv at dst.
type Fabric interface {
	Send(p Packet) bool
	Arrivals() []uint64
	Peek(dst int) *Packet
	Recv(dst int) (Packet, bool)
	Tick(now uint64)
	NextEvent(now uint64) uint64
	Busy() bool
	Stats() Stats
	SetSpanTracer(tr *span.Tracer)
	SetFaults(fc fault.Config, inst string)
}

// CrossbarMetrics is the flat crossbar's snapshot descriptor: the key, kind
// and source of every counter a snapshot carries for it.
var CrossbarMetrics = []stats.Metric[Crossbar]{
	stats.Count("crossbar_grants", func(x *Crossbar) uint64 { return x.stats.Grants }),
	stats.Count("backpressure_stall_cycles", func(x *Crossbar) uint64 { return x.stats.Stalled }),
	stats.Count("sent", func(x *Crossbar) uint64 { return x.stats.Sent }),
	stats.Count("delivered", func(x *Crossbar) uint64 { return x.stats.Delivered }),
	stats.Count("fault_drops", func(x *Crossbar) uint64 { return x.stats.Dropped }),
	stats.Count("fault_dups", func(x *Crossbar) uint64 { return x.stats.Duped }),
}

// Crossbar is the input-queued switch. It routes every packet on its out
// field: the destination endpoint for a packet sent on a flat crossbar, the
// output port its switch chose inside a multi-hop fabric.
type Crossbar struct {
	cfg       Config
	wireDepth int

	// Packets sit in the slab (a flat crossbar's own, or the one its
	// MultiHop shares among its switches); the queues hold their handles.
	// Ports open on first use: an input queue at the port's first Send, an
	// output's wire and delivery queue at its first grant. A port that never
	// carries a packet costs a nil pointer, which matters in the kilo-node
	// multi-hop fabrics, where most switch ports stay idle for a whole run.
	slab     *slab
	inputs   []*sim.Queue[int32]
	wires    []*sim.Delay[int32] // per-output in-flight packets
	outputs  []*sim.Queue[int32]
	arrivals []uint64          // outputs holding a packet (see Fabric)
	arb      []*sim.RoundRobin // per-output arbiter over inputs
	held     int               // packets in inputs, wires and outputs
	stats    Stats             // every field but Hops and RootPkts
	tr       *span.Tracer

	// Fault injection (nil when disabled). Drops and duplications strike at
	// the grant point — one draw per granted packet, in arbiter order, so
	// legacy and fast-forward stepping consume the streams identically.
	dropInj *fault.Injector
	dupInj  *fault.Injector

	// Per-Tick arbitration scratch, allocated once (the hot loop must not
	// allocate): grants per output and sends per input this cycle.
	granted  []int
	sentFrom []int

	// Head-packet candidate lists for the WordsPerCyc==1 fast path:
	// candHead[o] is the lowest input whose head targets output o,
	// candNext[i] threads the remaining candidates in ascending order.
	candHead []int
	candNext []int

	// noFastPath forces the general arbitration loop even at WordsPerCyc==1
	// — a test hook for proving the fast path bit-equivalent.
	noFastPath bool
}

// New returns a crossbar with the given configuration.
func New(cfg Config) *Crossbar { return newCrossbar(cfg, newSlab()) }

// newCrossbar returns a crossbar keeping its packets in sl.
func newCrossbar(cfg Config, sl *slab) *Crossbar {
	if cfg.Nodes < 1 || cfg.WordsPerCyc < 1 || cfg.InputQDepth < 1 || cfg.OutputQDepth < 1 || cfg.WireDepth < 0 {
		panic(fmt.Sprintf("network: invalid config %+v", cfg))
	}
	wireDepth := cfg.Nodes*cfg.WordsPerCyc*(cfg.Latency+1) + 1
	if cfg.WireDepth > 0 {
		wireDepth = cfg.WireDepth
	}
	x := &Crossbar{cfg: cfg, wireDepth: wireDepth, slab: sl}
	x.inputs = make([]*sim.Queue[int32], cfg.Nodes)
	x.wires = make([]*sim.Delay[int32], cfg.Nodes)
	x.outputs = make([]*sim.Queue[int32], cfg.Nodes)
	x.arrivals = make([]uint64, (cfg.Nodes+63)/64)
	for i := 0; i < cfg.Nodes; i++ {
		x.arb = append(x.arb, sim.NewRoundRobin(cfg.Nodes))
	}
	x.granted = make([]int, cfg.Nodes)
	x.sentFrom = make([]int, cfg.Nodes)
	x.candHead = make([]int, cfg.Nodes)
	x.candNext = make([]int, cfg.Nodes)
	return x
}

// Stats reads the counters. A flat crossbar is a single switch, so every
// accepted packet is one hop and one root crossing.
func (x *Crossbar) Stats() Stats {
	st := x.stats
	st.Hops, st.RootPkts = st.Sent, st.Sent
	return st
}

// SetSpanTracer installs a request-lifecycle tracer. Each granted wire
// crossing becomes an async span on the output port's track. A nil tracer
// disables tracing.
func (x *Crossbar) SetSpanTracer(tr *span.Tracer) { x.tr = tr }

// SetFaults installs wire fault injection: granted packets are dropped or
// duplicated with the configured per-packet probabilities. inst salts the
// injector streams. Loss is recovered end-to-end by the multinode link
// layer, not by the crossbar itself.
func (x *Crossbar) SetFaults(fc fault.Config, inst string) {
	x.dropInj = fault.NewInjector(fc.Seed, inst+".net.drop", fc.NetDropRate)
	x.dupInj = fault.NewInjector(fc.Seed, inst+".net.dup", fc.NetDupRate)
}

// Send injects a packet at its source port, bound for its destination
// port. It reports false when the input queue is full (back-pressure).
func (x *Crossbar) Send(p Packet) bool {
	if p.Src < 0 || int(p.Src) >= x.cfg.Nodes || p.Dst < 0 || int(p.Dst) >= x.cfg.Nodes {
		panic(fmt.Sprintf("network: packet %d->%d outside %d nodes", p.Src, p.Dst, x.cfg.Nodes))
	}
	if x.inputFull(int(p.Src)) {
		return false
	}
	p.out = p.Dst
	x.enqueue(int(p.Src), x.slab.put(&p))
	return true
}

// enqueue appends the packet with handle h, already routed to output out, to
// input port in, which the caller has found not full.
func (x *Crossbar) enqueue(in int, h int32) {
	q := x.inputs[in]
	if q == nil {
		q = sim.NewQueue[int32](x.cfg.InputQDepth)
		x.inputs[in] = q
	}
	q.MustPush(h)
	x.held++
	x.stats.Sent++
}

// Arrivals returns the nodes at which a delivered packet waits (see Fabric).
func (x *Crossbar) Arrivals() []uint64 { return x.arrivals }

// Recv pops one delivered packet at node dst, if available.
func (x *Crossbar) Recv(dst int) (Packet, bool) {
	h := x.head(dst)
	if h == 0 {
		return Packet{}, false
	}
	x.pop(dst)
	v := *x.slab.at(h)
	x.slab.release(h)
	return v, true
}

// Peek returns the next deliverable packet at node dst where it sits, or nil,
// letting receivers inspect control traffic before committing buffer space.
// Inside a multi-hop switch it is output port dst's head.
func (x *Crossbar) Peek(dst int) *Packet {
	if h := x.head(dst); h != 0 {
		return x.slab.at(h)
	}
	return nil
}

// head returns the handle of output o's head packet, or 0.
func (x *Crossbar) head(o int) int32 {
	if out := x.outputs[o]; out != nil {
		if h := out.Peek(); h != nil {
			return *h
		}
	}
	return 0
}

// pop removes output o's head packet from the crossbar; its slot is the
// caller's to free or pass on.
func (x *Crossbar) pop(o int) {
	out := x.outputs[o]
	out.Drop()
	if out.Empty() {
		x.arrivals[o>>6] &^= 1 << (o & 63)
	}
	x.held--
}

// Tick moves packets: each input may forward up to WordsPerCyc head packets
// whose output has room; each output claims arriving packets. Per-input
// bandwidth enforces the paper's low/high network configurations. A
// crossbar holding no packet has nothing to move, stall or arbitrate, so
// its Tick returns at once.
func (x *Crossbar) Tick(now uint64) { x.step(now) }

// step is Tick, reporting whether a packet moved: a wire delivered one to its
// output queue or an arbiter granted one. A step that moves nothing changes
// no state but the stall counter, which gains one per non-empty input; until
// a packet leaves an output queue, another one would do exactly the same
// unless a wire's head arrives (nextDelivery).
func (x *Crossbar) step(now uint64) (moved bool) {
	if x.held == 0 {
		return false
	}
	// Deliver packets that finished crossing to output queues.
	for o, w := range x.wires {
		if w == nil {
			continue
		}
		out := x.outputs[o]
		for budget := x.cfg.WordsPerCyc; budget > 0 && !out.Full(); budget-- { // output port bandwidth
			h := w.Peek(now)
			if h == nil {
				break
			}
			out.MustPush(*h)
			w.Drop()
			x.arrivals[o>>6] |= 1 << (o & 63)
			x.stats.Delivered++
			moved = true
		}
	}
	// Input side: each input forwards up to WordsPerCyc head packets; each
	// output accepts at most WordsPerCyc new packets per cycle, arbitrated
	// round-robin over inputs.
	granted, sentFrom := x.granted, x.sentFrom
	for i := range granted {
		granted[i], sentFrom[i] = 0, 0
	}
	if x.cfg.WordsPerCyc == 1 && !x.noFastPath {
		x.arbitrateFast(now)
	} else {
		for o := 0; o < x.cfg.Nodes; o++ {
			for granted[o] < x.cfg.WordsPerCyc {
				in := x.arb[o].Pick(func(i int) bool {
					if x.inputs[i] == nil {
						return false
					}
					h := x.inputs[i].Peek()
					return h != nil && int(x.slab.at(*h).out) == o && sentFrom[i] < x.cfg.WordsPerCyc && !x.wireFull(o)
				})
				if in < 0 {
					break
				}
				granted[o]++
				sentFrom[in]++
				x.grantTo(o, in, now)
			}
		}
	}
	for i, in := range x.inputs {
		if sentFrom[i] > 0 {
			moved = true
		} else if in != nil && !in.Empty() {
			x.stats.Stalled++
		}
	}
	return moved
}

// busyInputs returns the number of non-empty input queues: the stalls a step
// that moves nothing counts.
func (x *Crossbar) busyInputs() uint64 {
	n := uint64(0)
	for _, in := range x.inputs {
		if in != nil && !in.Empty() {
			n++
		}
	}
	return n
}

// nextDelivery returns the earliest cycle at which a wire can hand a packet
// to its output queue, or sim.Never: the head arrival of every wire whose
// output has room. A full output waits on its reader, not on time.
func (x *Crossbar) nextDelivery() uint64 {
	ev := sim.Never
	for o, w := range x.wires {
		if w != nil && !x.outputs[o].Full() {
			ev = min(ev, w.NextReady())
		}
	}
	return ev
}

// inputFull reports whether input port in refuses another packet; an
// unopened port is empty.
func (x *Crossbar) inputFull(in int) bool {
	q := x.inputs[in]
	return q != nil && q.Full()
}

// wireFull reports whether output o's wire refuses another packet; an
// unopened wire is empty.
func (x *Crossbar) wireFull(o int) bool {
	w := x.wires[o]
	return w != nil && w.Full()
}

// arbitrateFast is the WordsPerCyc==1 arbitration path. With one word of
// bandwidth per port each input offers only its head packet and each output
// grants at most once, so the per-output candidate sets built from the input
// heads are disjoint and the sentFrom budget check of the general loop is
// vacuously true: an input granted by some output cannot appear in a later
// output's candidate list (its head targeted the granting output). One
// arbiter step per active output therefore reproduces the general loop's
// grants — and its round-robin pointer updates — bit-for-bit, while the
// cycle's cost drops from O(ports²) predicate probes to O(ports). That is
// what makes the kilo-port flat crossbar of the scale-out figure simulable.
func (x *Crossbar) arbitrateFast(now uint64) {
	head, next := x.candHead, x.candNext
	for o := range head {
		head[o] = -1
	}
	// Build ascending candidate lists by prepending from the highest input
	// down.
	for i := x.cfg.Nodes - 1; i >= 0; i-- {
		if x.inputs[i] == nil {
			continue
		}
		if h := x.inputs[i].Peek(); h != nil {
			o := x.slab.at(*h).out
			next[i] = head[o]
			head[o] = i
		}
	}
	for o := 0; o < x.cfg.Nodes; o++ {
		if head[o] < 0 || x.wireFull(o) {
			continue
		}
		// Grant the candidate the rotating priority pointer reaches first.
		start := x.arb[o].Start()
		best, bestKey := -1, x.cfg.Nodes
		for i := head[o]; i >= 0; i = next[i] {
			k := i - start
			if k < 0 {
				k += x.cfg.Nodes
			}
			if k < bestKey {
				best, bestKey = i, k
			}
		}
		x.arb[o].Grant(best)
		x.granted[o]++
		x.sentFrom[best]++
		x.grantTo(o, best, now)
	}
}

// grantTo pops input in's head packet onto output o's wire, applying fault
// injection and tracing — the shared tail of both arbitration paths. The
// first grant to o opens its wire and delivery queue.
func (x *Crossbar) grantTo(o, in int, now uint64) {
	q := x.inputs[in]
	h := *q.Peek()
	q.Drop()
	x.stats.Grants++
	if x.dropInj.Fire() {
		// Injected wire fault: the packet vanishes (its bandwidth
		// slot is still consumed). One draw per granted packet.
		x.slab.release(h)
		x.held--
		x.stats.Dropped++
		return
	}
	w := x.wires[o]
	if w == nil {
		w = sim.NewDelay[int32](x.cfg.Latency, x.wireDepth)
		x.wires[o] = w
		x.outputs[o] = sim.NewQueue[int32](x.cfg.OutputQDepth)
	}
	w.Push(now, h)
	if x.dupInj.Fire() && !w.Full() {
		// Injected duplication: the packet crosses twice. The
		// receiver's sequence-number dedup makes replay idempotent.
		// The copy takes its own slot: inside a MultiHop it keeps the
		// grant's hop sequence number after the original moves on and
		// is admitted downstream under a new one.
		w.Push(now, x.slab.put(x.slab.at(h)))
		x.held++
		x.stats.Duped++
	}
	if x.tr != nil {
		x.tr.SpanAsync(fmt.Sprintf("net.out[%d]", o),
			fmt.Sprintf("pkt %d->%d", in, o),
			now, now+uint64(x.cfg.Latency))
	}
}

// NextEvent reports the earliest cycle at which the crossbar can do work
// (see the sim package doc): queued input or undelivered output is work now;
// otherwise the earliest wire-crossing completion.
func (x *Crossbar) NextEvent(now uint64) uint64 {
	if x.held == 0 {
		return sim.Never
	}
	for _, w := range x.arrivals {
		if w != 0 {
			return now
		}
	}
	ev := sim.Never
	for i := 0; i < x.cfg.Nodes; i++ {
		if in := x.inputs[i]; in != nil && !in.Empty() {
			return now
		}
		if w := x.wires[i]; w != nil {
			if r := w.NextReady(); r < ev {
				ev = r
			}
		}
	}
	if ev < now {
		return now
	}
	return ev
}

// Busy reports whether any packet is queued or in flight.
func (x *Crossbar) Busy() bool { return x.held > 0 }

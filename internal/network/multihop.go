// Multi-hop switch graphs: a k-ary tree or 2D mesh of small Crossbar switches
// with optional Ultracomputer-style in-switch combining and per-hop
// reliability.
//
// Topology. A tree of fan-in F places the N endpoints under ceil(N/F)
// contiguous leaf switches and recursively groups F switches under a parent
// until one root remains; packets climb to the lowest common ancestor and
// descend. A mesh places one switch per endpoint on an X×Y grid (port 0 the
// local node, ports 1..4 the east/west/north/south neighbours) and routes
// X-first, then Y — deterministic dimension-order routing.
//
// Combining. In front of every switch input port sits a staging window (the
// combine table), a ring of InputQDepth packets opened at the port's first
// arrival. When combining is on, an arriving scatter-add packet first looks
// up the switch's combining index for a staged packet with the same
// destination, kind and address (the associative match of the NYU
// Ultracomputer's combining switches); a hit adds its operand into the
// staged packet and the arrival is absorbed — it never consumes link
// bandwidth again. A switch stages at most one combinable packet per key,
// since any later arrival with that key merges into it, so the index finds
// exactly the packet a scan of the windows would. Staged packets drain
// into the switch each cycle as bandwidth allows, and a drained packet has
// left the window: combining opportunity exists exactly while traffic is
// queued, which is precisely when relief is needed (the NYU Ultracomputer's
// rationale for switch-level fetch-and-add combining).
//
// Reliability. Every packet entering a switch gets a fabric-wide hop
// sequence number and is held by its input port's RetransmitBuffer — the
// same buffer the multinode end-to-end link uses — for retransmission
// (exponential backoff, capped; a packet unacked after MaxRetries resends
// panics the run as unrecoverable). The switch acknowledges a packet when
// its first copy clears the output to the next stage, which releases the
// held copy; a copy that reaches the output after that (a retransmission
// or an injected duplicate) finds its hop copy no longer held and is
// discarded. So injected wire drops and duplications inside any switch are
// absorbed hop-locally instead of end-to-end. Retransmitted packets bypass
// the staging window — they carry an already-assigned hop sequence number
// and must not re-combine.
//
// Stepping. The fabric's packets sit in one slab that every switch shares:
// Send writes a packet into it once, the staging windows, crossbar queues,
// wires and delivery queues pass its 4-byte handle from hop to hop, and
// Recv copies it out. A Tick visits only the switches that hold packets
// (see Tick), and under fast-forward only those that can move one: a switch
// that moved nothing sleeps until a wire delivers or a neighbour frees or
// fills what it waits on. The sleepers with a timed wake sit in a
// sim.Calendar, and the endpoints with a waiting delivery in the Arrivals
// set, so neither a Tick nor its caller polls an idle switch or endpoint.
package network

import (
	"fmt"
	"math"
	"math/bits"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/sim"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// GraphKind selects a multi-hop switch graph.
type GraphKind int

const (
	// TreeGraph is a k-ary tree of configurable fan-in. Every port, the
	// uplink included, has the one per-link bandwidth, so unlike a fat-tree
	// its links do not widen toward the root.
	TreeGraph GraphKind = iota + 1
	// MeshGraph is a 2D mesh of per-node switches with XY routing.
	MeshGraph
)

func (k GraphKind) String() string {
	switch k {
	case TreeGraph:
		return "tree"
	case MeshGraph:
		return "mesh"
	}
	return fmt.Sprintf("GraphKind(%d)", int(k))
}

// MultiHopConfig describes a switched multi-hop fabric. A mesh lays the
// nodes on the most-square grid that holds them.
type MultiHopConfig struct {
	Kind  GraphKind
	Nodes int

	// FanIn is the tree's children per switch (TreeGraph; >= 2, default 4).
	FanIn int

	// Combine enables the in-switch combining window at every hop.
	Combine bool

	// Link configures every switch's internal crossbar: per-port bandwidth,
	// queue depths, and wire latency. Link.Nodes is ignored (each switch
	// sizes itself); Link.Latency is the per-hop latency.
	Link Config

	// LegacyStepping visits every switch that holds a packet every cycle:
	// no switch sleeps. It is the per-switch reference the sleeping fabric
	// must match.
	LegacyStepping bool
}

// DefaultMultiHopConfig returns a fan-in-4 tree over nodes endpoints at the
// paper's low per-port bandwidth.
func DefaultMultiHopConfig(nodes int) MultiHopConfig {
	return MultiHopConfig{Kind: TreeGraph, Nodes: nodes, FanIn: 4, Link: DefaultConfig(nodes)}
}

// hopLink is where a switch output port (or a node injection) leads: a
// destination node's delivery queue, or another switch's input staging.
type hopLink struct {
	node int // >= 0: deliver to this endpoint
	sw   int // else: stage into switch sw ...
	port int // ... at this input port
}

// mhSwitch is one switch: a crossbar plus per-port staging (the combining
// window) and retransmission buffers.
type mhSwitch struct {
	xb    *Crossbar
	ports int
	out   []hopLink // where each output port leads
	from  []int32   // per input port: the switch whose output feeds it (-1: an endpoint's injection)

	// Tree routing: children[c] = [childLo[c], childHi[c]) node range;
	// parent is the uplink port (-1 at the root). Mesh routing uses the
	// switch's grid coordinates instead.
	childLo, childHi []int
	parent           int
	x, y             int

	stage   []*sim.Queue[int32] // per input port: the combining window, opened at first use
	comb    combIndex           // the staged combinable packets by key, opened at first use
	retx    []RetransmitBuffer  // per input port: unacked hop packets
	staged  int                 // packets across every staging window
	unacked int                 // packets across every retransmission buffer

	// Switch-grain stepping (see Tick).
	state     swState
	moved     bool   // a packet moved in one of the switch's phases this cycle
	slept     bool   // the switch has skipped Phase B since sleepFrom: stalls are owed
	sleepFrom uint64 // first cycle whose Phase B the switch skipped
	sleepIns  uint64 // non-empty crossbar inputs while asleep: stalls per skipped cycle
}

// swState is where a switch stands in the stepping schedule.
type swState uint8

const (
	swIdle  swState = iota // holds no packet; nothing schedules it
	swRun                  // runs every phase of the next (or current) Tick
	swSleep                // holds packets but cannot move one until it wakes
)

// idle reports whether the switch holds no packet anywhere — nothing
// staged, awaiting an ack, or inside its crossbar. An idle switch's share of
// a Tick changes no state, so Tick passes over it.
func (s *mhSwitch) idle() bool { return s.staged == 0 && s.unacked == 0 && s.xb.held == 0 }

// resend re-enqueues a copy of a held hop packet, in a fresh slot, at the
// input port it left from; it keeps the output port and hop sequence number
// it was first sent with.
func (s *mhSwitch) resend(p Packet) bool {
	if s.xb.inputFull(int(p.in)) {
		return false
	}
	s.xb.enqueue(int(p.in), s.xb.slab.put(&p))
	return true
}

// MultiHop is a switched multi-hop fabric satisfying Fabric.
type MultiHop struct {
	cfg      MultiHopConfig
	sws      []*mhSwitch
	slab     *slab               // every packet in the fabric, shared by the switches
	inj      []hopLink           // per endpoint: injection point
	dlv      []int32             // per endpoint: the switch delivering to it
	outq     []*sim.Queue[int32] // per endpoint: delivered packets
	arrivals []uint64            // endpoints whose outq holds a packet (see Fabric)

	waiting int // packets across every endpoint's outq

	// Switch-grain stepping (see Tick). next holds the switches that run the
	// next Tick; cur, during a Tick, the switches whose Phase C is still to
	// run; both are bitsets in switch order. sleepers files the sleeping
	// switches with a timed wake at that cycle.
	next, cur []uint64
	cursor    int          // switch whose Phase C runs now; -1 before Phase C, len(sws) between Ticks
	holding   int          // switches holding a packet
	asleep    int          // of those, switches asleep
	sleepers  sim.Calendar // the sleeping switches with a timed wake
	ticked    uint64       // the cycle after the last Tick

	stats Stats // the fabric-level fields: all but Grants, Stalled, Dropped and Duped
	tr    *span.Tracer

	// Per-hop reliability (engaged by SetFaults when network faults are
	// configured).
	reliable bool
	flt      fault.Config
	seqCtr   uint64

	rootSw  int // tree: the root switch (-1 for meshes)
	meshX   int // mesh grid width
	meshCut int // mesh: crossings between columns meshCut-1 and meshCut count as RootPkts
}

// MultiHopMetrics is the multi-hop fabric's snapshot descriptor: the key,
// kind and source of every counter a snapshot carries for it.
var MultiHopMetrics = []stats.Metric[MultiHop]{
	stats.Count("sent", func(m *MultiHop) uint64 { return m.stats.Sent }),
	stats.Count("delivered", func(m *MultiHop) uint64 { return m.stats.Delivered }),
	stats.Count("switch_hops", func(m *MultiHop) uint64 { return m.stats.Hops }),
	stats.Count("combined_in_switch", func(m *MultiHop) uint64 { return m.stats.Combined }),
	stats.Count("root_packets", func(m *MultiHop) uint64 { return m.stats.RootPkts }),
	stats.Count("hop_retransmits", func(m *MultiHop) uint64 { return m.stats.HopRetrans }),
	stats.Count("hop_dups_dropped", func(m *MultiHop) uint64 { return m.stats.HopDups }),
}

// NewMultiHop builds the switch graph. Panics on invalid configuration —
// construction errors are programming errors, matching New.
func NewMultiHop(cfg MultiHopConfig) *MultiHop {
	if cfg.Nodes < 1 {
		panic(fmt.Sprintf("network: multihop needs >= 1 node, got %d", cfg.Nodes))
	}
	m := &MultiHop{cfg: cfg, slab: newSlab(), rootSw: -1}
	m.inj = make([]hopLink, cfg.Nodes)
	m.dlv = make([]int32, cfg.Nodes)
	m.arrivals = make([]uint64, (cfg.Nodes+63)/64)
	for i := 0; i < cfg.Nodes; i++ {
		m.outq = append(m.outq, sim.NewQueue[int32](max(1, cfg.Link.OutputQDepth)))
	}
	switch cfg.Kind {
	case TreeGraph:
		m.buildTree()
	case MeshGraph:
		m.buildMesh()
	default:
		panic(fmt.Sprintf("network: unknown multihop kind %v", cfg.Kind))
	}
	words := (len(m.sws) + 63) / 64
	m.next, m.cur = make([]uint64, words), make([]uint64, words)
	m.cursor = len(m.sws)
	m.sleepers = sim.NewCalendar(len(m.sws))
	return m
}

// addSwitch appends a switch with the given port count, sizing its crossbar
// from the per-link config.
func (m *MultiHop) addSwitch(ports int) *mhSwitch {
	if ports > math.MaxUint16 {
		panic(fmt.Sprintf("network: a switch of %d ports exceeds the packet's 16-bit input port", ports))
	}
	link := m.cfg.Link
	link.Nodes = ports
	s := &mhSwitch{
		xb:     newCrossbar(link, m.slab),
		ports:  ports,
		out:    make([]hopLink, ports),
		from:   make([]int32, ports),
		parent: -1,
	}
	for p := range s.from {
		s.from[p] = -1
	}
	s.stage = make([]*sim.Queue[int32], ports)
	s.retx = make([]RetransmitBuffer, ports)
	m.sws = append(m.sws, s)
	return s
}

// link wires output port op of switch a to input port ip of switch b.
func (m *MultiHop) link(a, op, b, ip int) {
	m.sws[a].out[op] = hopLink{node: -1, sw: b, port: ip}
	m.sws[b].from[ip] = int32(a)
}

// attach makes port p of switch si an endpoint's: node injects there and
// the switch delivers to it from output p.
func (m *MultiHop) attach(si, p, node int) {
	m.sws[si].out[p] = hopLink{node: node}
	m.inj[node] = hopLink{node: -1, sw: si, port: p}
	m.dlv[node] = int32(si)
}

// buildTree constructs the fan-in-F tree bottom-up: contiguous leaf ranges,
// then F-way groups of switches until a single root remains.
func (m *MultiHop) buildTree() {
	f := m.cfg.FanIn
	if f < 2 {
		panic(fmt.Sprintf("network: tree fan-in must be >= 2, got %d", f))
	}
	// Leaf level: switch j serves nodes [j*f, min(N,(j+1)*f)).
	var level []int // switch indices of the level under construction
	for lo := 0; lo < m.cfg.Nodes; lo += f {
		hi := min(lo+f, m.cfg.Nodes)
		nc := hi - lo
		ports := nc + 1 // +1 uplink, trimmed below if this leaf is the root
		if m.cfg.Nodes <= f {
			ports = nc
		}
		s := m.addSwitch(ports)
		for c := 0; c < nc; c++ {
			node := lo + c
			s.childLo = append(s.childLo, node)
			s.childHi = append(s.childHi, node+1)
			m.attach(len(m.sws)-1, c, node)
		}
		if ports > nc {
			s.parent = nc
		}
		level = append(level, len(m.sws)-1)
	}
	for len(level) > 1 {
		var up []int
		for g := 0; g < len(level); g += f {
			children := level[g:min(g+f, len(level))]
			nc := len(children)
			isRoot := len(level) <= f
			ports := nc + 1
			if isRoot {
				ports = nc
			}
			p := m.addSwitch(ports)
			pi := len(m.sws) - 1
			for c, ci := range children {
				child := m.sws[ci]
				p.childLo = append(p.childLo, child.childLo[0])
				p.childHi = append(p.childHi, child.childHi[len(child.childHi)-1])
				m.link(pi, c, ci, child.parent)
				m.link(ci, child.parent, pi, c)
			}
			if ports > nc {
				p.parent = nc
			}
			up = append(up, pi)
		}
		level = up
	}
	m.rootSw = level[0]
}

// buildMesh constructs the most-square X×Y grid: one switch per endpoint,
// five ports each (node, east, west, north, south), neighbours cross-linked.
func (m *MultiHop) buildMesh() {
	x, y := squarest(m.cfg.Nodes)
	m.meshX, m.meshCut = x, x/2
	const pNode, pEast, pWest, pNorth, pSouth = 0, 1, 2, 3, 4
	for n := 0; n < m.cfg.Nodes; n++ {
		s := m.addSwitch(5)
		s.x, s.y = n%x, n/x
		for p := range s.out {
			s.out[p] = hopLink{node: -1, sw: -1}
		}
		m.attach(n, pNode, n)
	}
	for n, s := range m.sws {
		if s.x+1 < x {
			m.link(n, pEast, n+1, pWest)
		}
		if s.x > 0 {
			m.link(n, pWest, n-1, pEast)
		}
		if s.y+1 < y {
			m.link(n, pNorth, n+x, pSouth)
		}
		if s.y > 0 {
			m.link(n, pSouth, n-x, pNorth)
		}
	}
}

// squarest returns the most-square factorization w*h == n with w >= h.
func squarest(n int) (w, h int) {
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			w, h = n/d, d
		}
	}
	return w, h
}

// route returns the output port of switch si toward endpoint dst.
func (m *MultiHop) route(si, dst int) int {
	s := m.sws[si]
	if m.cfg.Kind == MeshGraph {
		dx, dy := dst%m.meshX, dst/m.meshX
		switch {
		case dx > s.x:
			return 1 // east
		case dx < s.x:
			return 2 // west
		case dy > s.y:
			return 3 // north
		case dy < s.y:
			return 4 // south
		}
		return 0 // local node
	}
	for c := range s.childLo {
		if dst >= s.childLo[c] && dst < s.childHi[c] {
			return c
		}
	}
	return s.parent // up toward the lowest common ancestor
}

// Stats reads the counters. Grants and wire-level fault and stall activity
// live in the per-switch crossbars and are summed here, with the stalls a sleeping
// switch owes for the cycles it has skipped through the last Tick.
func (m *MultiHop) Stats() Stats {
	st := m.stats
	for _, s := range m.sws {
		st.Grants += s.xb.stats.Grants
		st.Stalled += s.xb.stats.Stalled
		st.Dropped += s.xb.stats.Dropped
		st.Duped += s.xb.stats.Duped
		if s.slept {
			st.Stalled += (m.ticked - s.sleepFrom) * s.sleepIns
		}
	}
	return st
}

// Combined returns the packets in-switch combining has absorbed so far, in
// O(1). A sender reads it around Send to tell whether the injection switch
// absorbed its packet.
func (m *MultiHop) Combined() uint64 { return m.stats.Combined }

// SetSpanTracer installs a request-lifecycle tracer: every packet admitted
// to a switch crossbar becomes an async span on that switch's track, and a
// request absorbed by combining inside the fabric ends its sampled op there.
func (m *MultiHop) SetSpanTracer(tr *span.Tracer) { m.tr = tr }

// SetFaults arms per-switch wire fault injection (each switch salts its own
// deterministic streams) and, when network faults are configured, engages
// the per-hop reliability layer.
func (m *MultiHop) SetFaults(fc fault.Config, inst string) {
	m.flt = fc
	m.reliable = fc.NetFaults()
	for i, s := range m.sws {
		s.xb.SetFaults(fc, fmt.Sprintf("%s.sw%d", inst, i))
	}
}

// Send injects a packet at its source endpoint. It reports false when the
// first switch's staging window is full and the packet cannot combine
// (back-pressure). A packet absorbed at the injection switch is the
// sender's to account for: its request's op has not begun when it merges
// (see Combined).
func (m *MultiHop) Send(p Packet) bool {
	if p.Src < 0 || int(p.Src) >= m.cfg.Nodes || p.Dst < 0 || int(p.Dst) >= m.cfg.Nodes {
		panic(fmt.Sprintf("network: packet %d->%d outside %d nodes", p.Src, p.Dst, m.cfg.Nodes))
	}
	l := m.inj[p.Src]
	h := m.slab.put(&p)
	if ok, _ := m.stageIn(l.sw, l.port, h); !ok {
		m.slab.release(h)
		return false
	}
	m.stats.Sent++
	return true
}

// combinable reports whether p may merge in a switch: a scatter-add that
// expects no reply (a merged fetch reply would be ambiguous), carrying no
// link acknowledgment or link sequence number of its own.
func combinable(p *Packet) bool {
	return !p.Ack && p.Seq == 0 && p.Req.Kind.IsScatterAdd() && !p.Req.Kind.IsFetch()
}

// stageIn admits the packet with handle h into switch si's combining window
// at the given input port. With combining on, a packet that finds a staged
// packet of the same destination, address and kind merges into it (merged)
// and stops consuming bandwidth: its operand is added into the staged
// packet and its slot is freed, so the caller must read anything it still
// needs from it first. Sum-backs are scatter-adds too, so evicted partial
// lines from different nodes cascade together on their way to the owner.
// Merging reorders additions exactly like the combining caches do:
// bit-exact for the integer kinds, paper semantics (associativity assumed)
// for floats. Otherwise the handle is appended (ok=false when the window is
// full, and the slot stays the caller's); appends count as switch
// traversals, merges by design do not.
//
// The merge partner is found in the switch's combining index (combIndex) in
// O(1); only a combinable arrival is looked up, and only a combinable
// packet is indexed.
func (m *MultiHop) stageIn(si, port int, h int32) (ok, merged bool) {
	s := m.sws[si]
	p := m.slab.at(h)
	mergeable := m.cfg.Combine && combinable(p)
	var hit int32
	if mergeable {
		hit = s.comb.find(m.slab, p)
	}
	if stageProbe != nil {
		stageProbe(m, s, *p, hit)
	}
	if hit != 0 {
		st := m.slab.at(hit)
		st.Req.Val = mem.Combine(st.Req.Kind, st.Req.Val, p.Req.Val)
		m.slab.release(h)
		m.stats.Combined++
		return true, true
	}
	w := s.stage[port]
	if w == nil {
		w = sim.NewQueue[int32](m.cfg.Link.InputQDepth)
		s.stage[port] = w
	}
	if !w.Push(h) {
		return false, false
	}
	if mergeable {
		s.comb.insert(m.slab, h, s.ports*m.cfg.Link.InputQDepth)
	}
	s.staged++
	m.stats.Hops++
	if si == m.rootSw {
		m.stats.RootPkts++
	}
	// Staged into: the switch admits the packet next cycle.
	if s.state == swIdle {
		s.state = swRun
		m.holding++
		m.next[si>>6] |= 1 << (si & 63)
	} else {
		m.wake(si)
	}
	if mergeable {
		// Merge partner: a feeder blocked on a full window of this switch
		// may now merge its head into the new packet.
		for q, f := range s.from {
			if f >= 0 && s.stage[q] != nil && s.stage[q].Full() {
				m.wakeNow(int(f))
			}
		}
	}
	return true, false
}

// Arrivals returns the endpoints at which a delivered packet waits (see
// Fabric).
func (m *MultiHop) Arrivals() []uint64 { return m.arrivals }

// Peek returns the next deliverable packet at endpoint dst where it sits,
// or nil.
func (m *MultiHop) Peek(dst int) *Packet {
	if h := m.outq[dst].Peek(); h != nil {
		return m.slab.at(*h)
	}
	return nil
}

// Recv pops one delivered packet at endpoint dst, if available, and frees
// its slot. Popping a full delivery queue wakes the switch that delivers to
// dst.
func (m *MultiHop) Recv(dst int) (Packet, bool) {
	q := m.outq[dst]
	hp := q.Peek()
	if hp == nil {
		return Packet{}, false
	}
	h, full := *hp, q.Full()
	q.Drop()
	p := *m.slab.at(h)
	m.slab.release(h)
	m.waiting--
	if q.Empty() {
		m.arrivals[dst>>6] &^= 1 << (dst & 63)
	}
	if full {
		m.wake(int(m.dlv[dst]))
	}
	return p, true
}

// Tick advances the fabric one cycle in three phases: (A) overdue
// retransmissions and staging windows drain into each switch's crossbar,
// (B) every crossbar moves packets, (C) switch outputs drain across links —
// deduplicating, acknowledging, and either staging into the next switch or
// delivering to the destination endpoint. Switches are visited in index
// order, A and B in one pass (each touches only its own switch), then C; the
// phases keep a packet from traversing more than one switch per cycle.
//
// Only switches holding a packet are visited. Under legacy stepping every
// one of them runs every cycle. Otherwise a switch that moved no packet in a
// cycle sleeps: its phases would move nothing again until a wire delivers
// to an output with room or a retransmission falls due (its timed wake), or
// a neighbour acts (see wake and wakeNow): a packet is staged into it, the
// downstream window one of its outputs feeds drains, a packet that its
// blocked head may merge into is staged downstream, or its endpoint's full
// delivery queue is read. A sleeping switch's only per-cycle effect is its
// crossbar's stall count, one per non-empty input, and those inputs cannot
// change while it sleeps; the skipped cycles' stalls are added as one
// product when it runs again (and counted by Stats meanwhile), as ObserveN
// adds skipped occupancy samples.
func (m *MultiHop) Tick(now uint64) {
	m.cur, m.next = m.next, m.cur
	for si, at := m.sleepers.Next(); at <= now; si, at = m.sleepers.Next() {
		m.sleepers.Remove(si)
		m.sws[si].state = swRun
		m.asleep--
		m.cur[si>>6] |= 1 << (si & 63)
	}
	// Phases A and B over the switches that run this cycle. A downstream
	// drain in Phase A adds a sleeping feeder to cur for Phase C only.
	m.cursor = -1
	for w := range m.cur {
		for b := m.cur[w]; b != 0; b &= b - 1 {
			si := w<<6 | bits.TrailingZeros64(b)
			if s := m.sws[si]; s.state == swRun {
				m.step(si, s, now)
			}
		}
	}
	// Phase C, in ascending order over a set that accepts wakes ahead of
	// the cursor.
	for w := range m.cur {
		for m.cur[w] != 0 {
			b := bits.TrailingZeros64(m.cur[w])
			m.cur[w] &^= 1 << b
			si := w<<6 | b
			m.cursor = si
			s := m.sws[si]
			m.forward(si, s, now)
			m.settle(si, s, now)
		}
	}
	m.cursor = len(m.sws)
	m.ticked = now + 1
}

// step is Phases A and B of switch si: retransmissions first (they are the
// oldest traffic), then staged packets claim the remaining input bandwidth,
// then the crossbar moves packets one cycle.
func (m *MultiHop) step(si int, s *mhSwitch, now uint64) {
	if s.slept {
		s.xb.stats.Stalled += (now - s.sleepFrom) * s.sleepIns
		s.slept = false
	}
	if m.reliable {
		for port := range s.retx {
			if n := s.retx[port].Resend(now, &m.flt, s.resend); n > 0 {
				m.stats.HopRetrans += uint64(n)
				s.moved = true
			}
		}
	}
	for port, w := range s.stage {
		if w == nil || w.Empty() {
			continue
		}
		full := w.Full()
		for hp := w.Peek(); hp != nil && !s.xb.inputFull(port); hp = w.Peek() {
			h := *hp
			p := m.slab.at(h)
			p.out, p.in = int32(m.route(si, int(p.Dst))), uint16(port)
			s.xb.enqueue(port, h)
			if m.reliable {
				m.seqCtr++
				p.hopSeq = m.seqCtr
				s.retx[port].Hold(p.hopSeq, *p, now+m.flt.RetryTimeout)
				s.unacked++
			}
			if m.tr != nil {
				m.tr.SpanAsync(fmt.Sprintf("net.sw[%d]", si),
					fmt.Sprintf("pkt %d->%d", p.Src, p.Dst),
					now, now+uint64(m.cfg.Link.Latency))
			}
			if m.cfg.Combine && combinable(p) {
				s.comb.remove(m.slab, h)
			}
			w.Drop()
			s.staged--
			s.moved = true
		}
		if full && !w.Full() && s.from[port] >= 0 {
			// Downstream drained: the feeder blocked on this window
			// forwards in this cycle's Phase C.
			m.wakeNow(int(s.from[port]))
		}
	}
	if s.xb.step(now) {
		s.moved = true
	}
}

// forward is Phase C of switch si: drain its outputs across links, in port
// order, visiting only the outputs that hold a packet.
func (m *MultiHop) forward(si int, s *mhSwitch, now uint64) {
	for w, word := range s.xb.arrivals {
		for ; word != 0; word &= word - 1 {
			m.forwardPort(si, s, w<<6|bits.TrailingZeros64(word), now)
		}
	}
}

// forwardPort drains output port of switch si across its link until the
// output empties or the link refuses.
func (m *MultiHop) forwardPort(si int, s *mhSwitch, port int, now uint64) {
	for {
		h := s.xb.head(port)
		if h == 0 {
			return
		}
		p := m.slab.at(h)
		if m.reliable && !s.retx[p.in].Holds(p.hopSeq) {
			// A retransmission (or injected duplicate) of a packet
			// already forwarded, whose first copy released its hop
			// copy here: drop it.
			s.xb.pop(port)
			m.slab.release(h)
			m.stats.HopDups++
			s.moved = true
			continue
		}
		link := s.out[port]
		if link.node >= 0 {
			q := m.outq[link.node]
			if q.Full() {
				return
			}
			m.ackHop(s, p.in, p.hopSeq)
			q.MustPush(h)
			s.xb.pop(port)
			m.arrivals[link.node>>6] |= 1 << (link.node & 63)
			m.waiting++
			m.stats.Delivered++
			s.moved = true
			continue
		}
		if link.sw < 0 {
			panic(fmt.Sprintf("network: switch %d routed out an unwired port %d", si, port))
		}
		// A merge frees p's slot inside stageIn: read what is still needed.
		node, id, in, seq := p.Req.Node, p.Req.ID, p.in, p.hopSeq
		ok, merged := m.stageIn(link.sw, link.port, h)
		if !ok {
			return // downstream staging full: back-pressure
		}
		if merged {
			// The absorbed request is complete the moment it merges (a
			// no-op unless its op is sampled).
			m.tr.OpEnd(node, id, now)
		}
		m.ackHop(s, in, seq)
		s.xb.pop(port)
		s.moved = true
		if m.cfg.Kind == MeshGraph {
			// Bisection accounting: crossings between columns meshCut-1
			// and meshCut are the mesh's "root link".
			if (port == 1 && s.x == m.meshCut-1) || (port == 2 && s.x == m.meshCut) {
				m.stats.RootPkts++
			}
		}
	}
}

// settle schedules switch si after its Phase C: an idle switch leaves the
// schedule; one that ran this cycle runs the next unless it moved nothing
// and may sleep; one that slept through Phases A and B runs the next cycle
// if its Phase C moved a packet, and otherwise sleeps on (or runs, if a
// neighbour woke it meanwhile).
func (m *MultiHop) settle(si int, s *mhSwitch, now uint64) {
	moved := s.moved
	s.moved = false
	if s.idle() {
		if s.state == swSleep {
			m.sleepers.Remove(si)
			m.asleep--
		}
		s.state, s.slept = swIdle, false
		m.holding--
		return
	}
	if s.slept {
		// Asleep through Phases A and B (perhaps woken since).
		if moved {
			m.wake(si)
		}
		return
	}
	if !moved && !m.cfg.LegacyStepping {
		if at := m.wakeTime(s, now+1); at > now+1 {
			s.state = swSleep
			m.asleep++
			s.slept, s.sleepFrom, s.sleepIns = true, now+1, s.xb.busyInputs()
			if at != sim.Never {
				m.sleepers.Set(si, at)
			}
			return
		}
	}
	m.next[si>>6] |= 1 << (si & 63)
}

// wakeTime returns the earliest cycle from next on at which a switch that
// moved nothing this cycle can move a packet of its own accord: next if a
// packet was staged into a window whose crossbar input has room, else a
// wire arrival at an output with room or a retransmission deadline (a due
// one keeps it awake, as Resend checks MaxRetries even when its input is
// full).
func (m *MultiHop) wakeTime(s *mhSwitch, next uint64) uint64 {
	for port, w := range s.stage {
		if w != nil && !w.Empty() && !s.xb.inputFull(port) {
			return next
		}
	}
	at := s.xb.nextDelivery()
	if m.reliable {
		for port := range s.retx {
			at = min(at, s.retx[port].NextDeadline())
		}
	}
	return at
}

// wake makes sleeping switch si run the next Tick.
func (m *MultiHop) wake(si int) {
	s := m.sws[si]
	if s.state != swSleep {
		return
	}
	m.sleepers.Remove(si)
	s.state = swRun
	m.asleep--
	m.next[si>>6] |= 1 << (si & 63)
}

// wakeNow makes sleeping switch si run Phase C in the current cycle if its
// turn has not come yet, and the next cycle otherwise (between Ticks, the
// next Tick).
func (m *MultiHop) wakeNow(si int) {
	if m.sws[si].state != swSleep || si == m.cursor {
		// Running, or forwarding now: it sees the change itself, and
		// settle decides whether it runs the next cycle.
		return
	}
	if si > m.cursor {
		m.cur[si>>6] |= 1 << (si & 63)
		return
	}
	m.wake(si)
}

// ackHop settles reliability state for a packet, admitted at input port in
// under hop sequence number seq, whose first copy cleared switch s: it
// releases the retransmission copy, so that any later copy is known for a
// duplicate. Hop acks are internal switch state, so they settle the same
// cycle (no ack packets compete for bandwidth — consistent with real
// combining networks, whose switch acks ride dedicated wires).
func (m *MultiHop) ackHop(s *mhSwitch, in uint16, seq uint64) {
	if !m.reliable {
		return
	}
	if _, ok := s.retx[in].Ack(seq); ok {
		s.unacked--
	}
}

// NextEvent reports the earliest cycle at which the fabric can make
// progress (see the sim package doc): a delivered packet waiting at an
// endpoint or a switch scheduled to run is work now; otherwise the earliest
// timed wake of a sleeping switch. A switch asleep without one waits on a
// neighbour.
func (m *MultiHop) NextEvent(now uint64) uint64 {
	if m.waiting > 0 || m.holding > m.asleep {
		return now
	}
	_, at := m.sleepers.Next()
	return max(now, at)
}

// Busy reports whether any packet is staged, queued, in flight, awaiting an
// ack, or undelivered.
func (m *MultiHop) Busy() bool { return m.waiting > 0 || m.holding > 0 }

// Multi-hop switch graphs: a fat-tree or 2D mesh of small Crossbar switches
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
// combine table). When combining is on, an arriving scatter-add packet first
// scans the switch's staged packets for one with the same destination,
// address and kind; a hit adds its operand into the staged packet and the
// arrival is absorbed — it never consumes link bandwidth again. Staged
// packets drain into the switch each cycle as bandwidth allows, and a
// drained packet has left the window: combining opportunity exists exactly
// while traffic is queued, which is precisely when relief is needed (the
// NYU Ultracomputer's rationale for switch-level fetch-and-add combining).
//
// Reliability. Every packet entering a switch gets a fabric-wide hop
// sequence number and is held by its input port's RetransmitBuffer — the
// same buffer the multinode end-to-end link uses — for retransmission
// (exponential backoff, capped; a packet unacked after MaxRetries resends
// panics the run as unrecoverable). The switch's output side deduplicates
// by hop sequence number and acknowledges on successful handoff to the next
// stage, so injected wire drops and duplications inside any switch are
// absorbed hop-locally instead of end-to-end. Retransmitted packets bypass
// the staging window — they carry an already-assigned hop sequence number
// and must not re-combine.
package network

import (
	"fmt"
	"math"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/sim"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// GraphKind selects a multi-hop switch graph.
type GraphKind int

const (
	// TreeGraph is a fat-tree of configurable fan-in.
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

// MultiHopConfig describes a switched multi-hop fabric.
type MultiHopConfig struct {
	Kind  GraphKind
	Nodes int

	// FanIn is the tree's children per switch (TreeGraph; >= 2, default 4).
	FanIn int
	// MeshX, MeshY are the mesh grid dimensions (MeshGraph; both zero picks
	// the most-square factorization of Nodes; otherwise MeshX*MeshY must
	// equal Nodes).
	MeshX, MeshY int

	// Combine enables the in-switch combining window at every hop.
	Combine bool

	// Link configures every switch's internal crossbar: per-port bandwidth,
	// queue depths, and wire latency. Link.Nodes is ignored (each switch
	// sizes itself); Link.Latency is the per-hop latency.
	Link Config
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
// window), retransmission buffers, and receive-side dedup state.
type mhSwitch struct {
	xb    *Crossbar
	ports int
	out   []hopLink // where each output port leads

	// Tree routing: children[c] = [childLo[c], childHi[c]) node range;
	// parent is the uplink port (-1 at the root). Mesh routing uses the
	// switch's grid coordinates instead.
	childLo, childHi []int
	parent           int
	x, y             int

	stage   [][]Packet            // per input port: the combining window
	retx    []RetransmitBuffer    // per input port: unacked hop packets
	seen    []map[uint64]struct{} // per output port: delivered hop seqs (dedup)
	staged  int                   // packets across every staging window
	unacked int                   // packets across every retransmission buffer
}

// idle reports whether the switch holds no packet anywhere — nothing
// staged, awaiting an ack, or inside its crossbar. An idle switch's share of
// a Tick changes no state, so Tick, NextEvent and Busy pass over it.
func (s *mhSwitch) idle() bool { return s.staged == 0 && s.unacked == 0 && s.xb.held == 0 }

// resend re-enqueues a held hop packet at the input port it left from; it
// keeps the output port and hop sequence number it was first sent with.
func (s *mhSwitch) resend(p Packet) bool { return s.xb.enqueue(int(p.in), p) }

// MultiHop is a switched multi-hop fabric satisfying Fabric.
type MultiHop struct {
	cfg  MultiHopConfig
	sws  []*mhSwitch
	inj  []hopLink            // per endpoint: injection point
	outq []*sim.Queue[Packet] // per endpoint: delivered packets

	waiting int // packets across every endpoint's outq

	met mhMetrics
	tr  *span.Tracer

	// Per-hop reliability (engaged by SetFaults when network faults are
	// configured).
	reliable bool
	flt      fault.Config
	seqCtr   uint64

	rootSw  int // tree: the root switch (-1 for meshes)
	meshX   int // mesh grid width
	meshCut int // mesh: crossings between columns meshCut-1 and meshCut count as RootPkts
}

// mhMetrics are the fabric-level performance counters.
type mhMetrics struct {
	group     *stats.Group
	sent      *stats.Counter // packets accepted at injection ports
	delivered *stats.Counter // packets handed to destination endpoints
	hops      *stats.Counter // switch traversals (staging admissions)
	combined  *stats.Counter // packets absorbed by in-switch combining
	rootPkts  *stats.Counter // root-switch / bisection crossings
	retrans   *stats.Counter // per-hop retransmissions
	dups      *stats.Counter // duplicate hop packets discarded
}

func newMHMetrics() mhMetrics {
	g := stats.NewGroup("net")
	return mhMetrics{
		group:     g,
		sent:      g.Counter("sent"),
		delivered: g.Counter("delivered"),
		hops:      g.Counter("switch_hops"),
		combined:  g.Counter("combined_in_switch"),
		rootPkts:  g.Counter("root_packets"),
		retrans:   g.Counter("hop_retransmits"),
		dups:      g.Counter("hop_dups_dropped"),
	}
}

// NewMultiHop builds the switch graph. Panics on invalid configuration —
// construction errors are programming errors, matching New.
func NewMultiHop(cfg MultiHopConfig) *MultiHop {
	if cfg.Nodes < 1 {
		panic(fmt.Sprintf("network: multihop needs >= 1 node, got %d", cfg.Nodes))
	}
	m := &MultiHop{cfg: cfg, met: newMHMetrics(), rootSw: -1}
	m.inj = make([]hopLink, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		m.outq = append(m.outq, sim.NewQueue[Packet](max(1, cfg.Link.OutputQDepth)))
	}
	switch cfg.Kind {
	case TreeGraph:
		m.buildTree()
	case MeshGraph:
		m.buildMesh()
	default:
		panic(fmt.Sprintf("network: unknown multihop kind %v", cfg.Kind))
	}
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
		xb:     New(link),
		ports:  ports,
		out:    make([]hopLink, ports),
		parent: -1,
	}
	s.stage = make([][]Packet, ports)
	s.retx = make([]RetransmitBuffer, ports)
	s.seen = make([]map[uint64]struct{}, ports)
	m.sws = append(m.sws, s)
	return s
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
			s.out[c] = hopLink{node: node}
			m.inj[node] = hopLink{node: -1, sw: len(m.sws) - 1, port: c}
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
				p.out[c] = hopLink{node: -1, sw: ci, port: child.parent}
				child.out[child.parent] = hopLink{node: -1, sw: pi, port: c}
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

// buildMesh constructs the X×Y grid: one switch per endpoint, five ports
// each (node, east, west, north, south), neighbours cross-linked.
func (m *MultiHop) buildMesh() {
	x, y := m.cfg.MeshX, m.cfg.MeshY
	if x == 0 && y == 0 {
		x, y = squarest(m.cfg.Nodes)
	}
	if x < 1 || y < 1 || x*y != m.cfg.Nodes {
		panic(fmt.Sprintf("network: mesh %dx%d does not cover %d nodes", x, y, m.cfg.Nodes))
	}
	m.meshX, m.meshCut = x, x/2
	const pNode, pEast, pWest, pNorth, pSouth = 0, 1, 2, 3, 4
	for n := 0; n < m.cfg.Nodes; n++ {
		s := m.addSwitch(5)
		s.x, s.y = n%x, n/x
		for p := range s.out {
			s.out[p] = hopLink{node: -1, sw: -1}
		}
		s.out[pNode] = hopLink{node: n}
		m.inj[n] = hopLink{node: -1, sw: n, port: pNode}
	}
	for n, s := range m.sws {
		if s.x+1 < x {
			s.out[pEast] = hopLink{node: -1, sw: n + 1, port: pWest}
		}
		if s.x > 0 {
			s.out[pWest] = hopLink{node: -1, sw: n - 1, port: pEast}
		}
		if s.y+1 < y {
			s.out[pNorth] = hopLink{node: -1, sw: n + x, port: pSouth}
		}
		if s.y > 0 {
			s.out[pSouth] = hopLink{node: -1, sw: n - x, port: pNorth}
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

// Stats reads the counters. Wire-level fault and stall activity lives in
// the per-switch crossbars and is summed here.
func (m *MultiHop) Stats() Stats {
	st := Stats{
		Sent:       m.met.sent.Value(),
		Delivered:  m.met.delivered.Value(),
		Hops:       m.met.hops.Value(),
		RootPkts:   m.met.rootPkts.Value(),
		Combined:   m.met.combined.Value(),
		HopRetrans: m.met.retrans.Value(),
		HopDups:    m.met.dups.Value(),
	}
	for _, s := range m.sws {
		st.Stalled += s.xb.met.stalls.Value()
		st.Dropped += s.xb.met.faultDrops.Value()
		st.Duped += s.xb.met.faultDups.Value()
	}
	return st
}

// Combined returns the packets in-switch combining has absorbed so far, in
// O(1). A sender reads it around Send to tell whether the injection switch
// absorbed its packet.
func (m *MultiHop) Combined() uint64 { return m.met.combined.Value() }

// StatsGroup returns the fabric's performance-counter group.
func (m *MultiHop) StatsGroup() *stats.Group { return m.met.group }

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
		if m.reliable {
			for p := range s.seen {
				s.seen[p] = make(map[uint64]struct{})
			}
		}
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
	if ok, _ := m.stageIn(l.sw, l.port, p); !ok {
		return false
	}
	m.met.sent.Inc()
	return true
}

// combinable reports whether p may merge in a switch: a scatter-add that
// expects no reply (a merged fetch reply would be ambiguous), carrying no
// link acknowledgment or link sequence number of its own.
func combinable(p *Packet) bool {
	return !p.Ack && p.Seq == 0 && p.Req.Kind.IsScatterAdd() && !p.Req.Kind.IsFetch()
}

// stageIn admits a packet into switch si's combining window at the given
// input port. With combining on, a packet that finds a staged packet of the
// same destination, address and kind merges into it (merged) and stops
// consuming bandwidth; sum-backs are scatter-adds too, so evicted partial
// lines from different nodes cascade together on their way to the owner.
// Merging reorders additions exactly like the combining caches do:
// bit-exact for the integer kinds, paper semantics (associativity assumed)
// for floats. Otherwise the packet is appended (ok=false when the window is
// full); appends count as switch traversals, merges by design do not.
func (m *MultiHop) stageIn(si, port int, p Packet) (ok, merged bool) {
	s := m.sws[si]
	if m.cfg.Combine && combinable(&p) {
		for q := range s.stage {
			for i := range s.stage[q] {
				st := &s.stage[q][i]
				if st.Dst == p.Dst && st.Req.Addr == p.Req.Addr && st.Req.Kind == p.Req.Kind && combinable(st) {
					st.Req.Val = mem.Combine(st.Req.Kind, st.Req.Val, p.Req.Val)
					m.met.combined.Inc()
					return true, true
				}
			}
		}
	}
	if len(s.stage[port]) >= m.cfg.Link.InputQDepth {
		return false, false
	}
	s.stage[port] = append(s.stage[port], p)
	s.staged++
	m.met.hops.Inc()
	if si == m.rootSw {
		m.met.rootPkts.Inc()
	}
	return true, false
}

// HasArrival reports whether a delivered packet waits at endpoint dst.
func (m *MultiHop) HasArrival(dst int) bool { return !m.outq[dst].Empty() }

// Peek returns the next deliverable packet at endpoint dst without consuming
// it.
func (m *MultiHop) Peek(dst int) (Packet, bool) { return m.outq[dst].Peek() }

// Recv pops one delivered packet at endpoint dst, if available.
func (m *MultiHop) Recv(dst int) (Packet, bool) {
	p, ok := m.outq[dst].Pop()
	if ok {
		m.waiting--
	}
	return p, ok
}

// Tick advances the fabric one cycle in three phases: (A) overdue
// retransmissions and staging windows drain into each switch's crossbar,
// (B) every crossbar moves packets, (C) switch outputs drain across links —
// deduplicating, acknowledging, and either staging into the next switch or
// delivering to the destination endpoint. All switches are visited in index
// order; the phases keep a packet from traversing more than one switch per
// cycle. Each phase passes over idle switches, whose share of it is a no-op,
// so a cycle costs little more than the work of the switches carrying
// traffic.
func (m *MultiHop) Tick(now uint64) {
	// Phase A: retransmissions first (they are the oldest traffic), then
	// staged packets claim the remaining input bandwidth.
	for si, s := range m.sws {
		if s.idle() {
			continue
		}
		if m.reliable {
			for port := range s.retx {
				m.met.retrans.Add(uint64(s.retx[port].Resend(now, &m.flt, s.resend)))
			}
		}
		for port := range s.stage {
			for len(s.stage[port]) > 0 {
				p := s.stage[port][0]
				p.out, p.in = int32(m.route(si, int(p.Dst))), uint16(port)
				if m.reliable {
					p.hopSeq = m.seqCtr + 1
				}
				if !s.xb.enqueue(port, p) {
					break
				}
				if m.reliable {
					m.seqCtr++
					s.retx[port].Hold(p.hopSeq, p, now+m.flt.RetryTimeout)
					s.unacked++
				}
				if m.tr != nil {
					m.tr.SpanAsync(fmt.Sprintf("net.sw[%d]", si),
						fmt.Sprintf("pkt %d->%d", p.Src, p.Dst),
						now, now+uint64(m.cfg.Link.Latency))
				}
				copy(s.stage[port], s.stage[port][1:])
				s.stage[port] = s.stage[port][:len(s.stage[port])-1]
				s.staged--
			}
		}
	}
	// Phase B: every switch's crossbar moves packets one cycle (an empty
	// crossbar's Tick returns at once).
	for _, s := range m.sws {
		s.xb.Tick(now)
	}
	// Phase C: drain switch outputs across links.
	for si, s := range m.sws {
		if s.idle() {
			continue
		}
		for port := 0; port < s.ports; port++ {
			for {
				p, ok := s.xb.Peek(port)
				if !ok {
					break
				}
				if m.reliable {
					if _, dup := s.seen[port][p.hopSeq]; dup {
						// A retransmission (or injected duplicate) of a packet
						// already forwarded: consume, re-ack, drop.
						s.xb.Recv(port)
						m.ackHop(s, &p)
						m.met.dups.Inc()
						continue
					}
				}
				link := s.out[port]
				if link.node >= 0 {
					if m.outq[link.node].Full() {
						break
					}
					s.xb.Recv(port)
					m.acceptHop(s, port, &p)
					m.outq[link.node].MustPush(p)
					m.waiting++
					m.met.delivered.Inc()
					continue
				}
				if link.sw < 0 {
					panic(fmt.Sprintf("network: switch %d routed out an unwired port %d", si, port))
				}
				ok, merged := m.stageIn(link.sw, link.port, p)
				if !ok {
					break // downstream staging full: back-pressure
				}
				if merged {
					// The absorbed request is complete the moment it
					// merges (a no-op unless its op is sampled).
					m.tr.OpEnd(p.Req.Node, p.Req.ID, now)
				}
				s.xb.Recv(port)
				m.acceptHop(s, port, &p)
				if m.cfg.Kind == MeshGraph {
					// Bisection accounting: crossings between columns
					// meshCut-1 and meshCut are the mesh's "root link".
					if (port == 1 && s.x == m.meshCut-1) || (port == 2 && s.x == m.meshCut) {
						m.met.rootPkts.Inc()
					}
				}
			}
		}
	}
}

// acceptHop settles reliability state for a packet that cleared switch s:
// mark its hop sequence delivered at the output port and acknowledge the
// input port's retransmission copy. Hop acks are internal switch state, so
// they settle the same cycle (no ack packets compete for bandwidth —
// consistent with real combining networks, whose switch acks ride dedicated
// wires).
func (m *MultiHop) acceptHop(s *mhSwitch, port int, p *Packet) {
	if !m.reliable {
		return
	}
	s.seen[port][p.hopSeq] = struct{}{}
	m.ackHop(s, p)
}

// ackHop releases the packet's retransmission copy at its input port.
// Already released packets (duplicates racing a retransmission) are
// ignored.
func (m *MultiHop) ackHop(s *mhSwitch, p *Packet) {
	if _, ok := s.retx[p.in].Ack(p.hopSeq); ok {
		s.unacked--
	}
}

// NextEvent reports the earliest cycle at which the fabric can make
// progress (sim.FastForwarder): staged, queued, or deliverable traffic is
// work now; otherwise the earliest wire completion or retransmission
// deadline.
func (m *MultiHop) NextEvent(now uint64) uint64 {
	if m.waiting > 0 {
		return now
	}
	ev := sim.Never
	for _, s := range m.sws {
		if s.idle() {
			continue
		}
		if s.staged > 0 {
			return now
		}
		if t := s.xb.NextEvent(now); t <= now {
			return now
		} else if t < ev {
			ev = t
		}
		for port := range s.retx {
			ev = min(ev, s.retx[port].NextDeadline())
		}
	}
	if ev < now {
		return now
	}
	return ev
}

// Busy reports whether any packet is staged, queued, in flight, awaiting an
// ack, or undelivered.
func (m *MultiHop) Busy() bool {
	if m.waiting > 0 {
		return true
	}
	for _, s := range m.sws {
		if !s.idle() {
			return true
		}
	}
	return false
}

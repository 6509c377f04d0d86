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
// combine table). When combining is on, an arriving packet first scans the
// switch's staged packets for one with the same combining key and
// destination; a hit merges the payloads (Combiner.Merge) and the arrival is
// absorbed — it never consumes link bandwidth again. Staged packets drain
// into the switch each cycle as bandwidth allows, and a drained packet has
// left the window: combining opportunity exists exactly while traffic is
// queued, which is precisely when relief is needed (the NYU Ultracomputer's
// rationale for switch-level fetch-and-add combining).
//
// Reliability. The PR 5 link layer is reused per hop: every frame entering a
// switch gets a fabric-wide sequence number and is held by its input port
// for retransmission (exponential backoff, capped; a frame unacked after
// MaxRetries attempts panics the run as unrecoverable). The switch's output
// side deduplicates by sequence number and acknowledges on successful
// handoff to the next stage, so injected wire drops and duplications inside
// any switch are absorbed hop-locally instead of end-to-end. Retransmitted
// frames bypass the staging window — they carry an already-assigned sequence
// number and must not re-combine.
package network

import (
	"fmt"

	"scatteradd/internal/fault"
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

	// Combine enables the in-switch combining window at every hop. The
	// fabric also needs a Combiner (SetCombiner) to know which payloads may
	// merge.
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

// Combiner tells a combining fabric which payloads may merge and how. Key
// reports a payload's combining key, or ok=false for uncombinable traffic
// (acks, fetch variants); two packets merge when their keys and destinations
// match. Merge folds absorb into into and returns the merged payload.
// OnAbsorb, when non-nil, is called once per absorbed packet so the caller
// can settle request-lifecycle accounting (the absorbed request is complete
// the instant it merges).
type Combiner[T any] struct {
	Key      func(p T) (key uint64, ok bool)
	Merge    func(into, absorb T) T
	OnAbsorb func(absorb T)
}

// hopFrame wraps a packet for one switch traversal: seq is the per-hop
// reliability sequence number (0 when faults are off), from the input port
// holding the retransmission copy.
type hopFrame[T any] struct {
	pkt  Packet[T]
	seq  uint64
	from int
}

// hopLink is where a switch output port (or a node injection) leads: a
// destination node's delivery queue, or another switch's input staging.
type hopLink struct {
	node int // >= 0: deliver to this endpoint
	sw   int // else: stage into switch sw ...
	port int // ... at this input port
}

// hopPending is a sent-but-unacked frame held at its input port for
// retransmission, mirroring the multinode end-to-end link layer per hop.
type hopPending[T any] struct {
	f        hopFrame[T]
	dst      int    // output port within the switch
	deadline uint64 // cycle at which the frame retransmits
	attempt  int    // transmissions so far beyond the first
}

// mhSwitch is one switch: a crossbar plus per-port staging (the combining
// window), retransmission buffers, and receive-side dedup state.
type mhSwitch[T any] struct {
	xb    *Crossbar[hopFrame[T]]
	ports int
	out   []hopLink // where each output port leads

	// Tree routing: children[c] = [childLo[c], childHi[c]) node range;
	// parent is the uplink port (-1 at the root). Mesh routing uses the
	// switch's grid coordinates instead.
	childLo, childHi []int
	parent           int
	x, y             int

	stage   [][]hopFrame[T]       // per input port: the combining window
	pending [][]hopPending[T]     // per input port: unacked frames, in seq order
	seen    []map[uint64]struct{} // per output port: delivered seqs (dedup)

	staged  int // frames across every staging window
	unacked int // frames across every retransmission buffer
}

// idle reports whether the switch holds no frame anywhere — nothing staged,
// awaiting an ack, or inside its crossbar. An idle switch's share of a Tick
// changes no state, so Tick, NextEvent and Busy pass over it.
func (s *mhSwitch[T]) idle() bool { return s.staged == 0 && s.unacked == 0 && s.xb.held == 0 }

// MultiHop is a switched multi-hop fabric satisfying Fabric.
type MultiHop[T any] struct {
	cfg  MultiHopConfig
	sws  []*mhSwitch[T]
	inj  []hopLink               // per endpoint: injection point
	outq []*sim.Queue[Packet[T]] // per endpoint: delivered packets

	waiting int // packets across every endpoint's outq

	comb  Combiner[T]
	stats Stats
	met   mhMetrics
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

// mhMetrics are the fabric-level performance counters.
type mhMetrics struct {
	group     *stats.Group
	sent      *stats.Counter // packets accepted at injection ports
	delivered *stats.Counter // packets handed to destination endpoints
	hops      *stats.Counter // switch traversals (staging admissions)
	combined  *stats.Counter // packets absorbed by in-switch combining
	rootPkts  *stats.Counter // root-switch / bisection crossings
	retrans   *stats.Counter // per-hop retransmissions
	dups      *stats.Counter // duplicate hop frames discarded
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
func NewMultiHop[T any](cfg MultiHopConfig) *MultiHop[T] {
	if cfg.Nodes < 1 {
		panic(fmt.Sprintf("network: multihop needs >= 1 node, got %d", cfg.Nodes))
	}
	m := &MultiHop[T]{cfg: cfg, met: newMHMetrics(), rootSw: -1}
	m.inj = make([]hopLink, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		m.outq = append(m.outq, sim.NewQueue[Packet[T]](max(1, cfg.Link.OutputQDepth)))
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
func (m *MultiHop[T]) addSwitch(ports int) *mhSwitch[T] {
	link := m.cfg.Link
	link.Nodes = ports
	s := &mhSwitch[T]{
		xb:     New[hopFrame[T]](link),
		ports:  ports,
		out:    make([]hopLink, ports),
		parent: -1,
	}
	s.stage = make([][]hopFrame[T], ports)
	s.pending = make([][]hopPending[T], ports)
	s.seen = make([]map[uint64]struct{}, ports)
	m.sws = append(m.sws, s)
	return s
}

// buildTree constructs the fan-in-F tree bottom-up: contiguous leaf ranges,
// then F-way groups of switches until a single root remains.
func (m *MultiHop[T]) buildTree() {
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
func (m *MultiHop[T]) buildMesh() {
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
func (m *MultiHop[T]) route(si, dst int) int {
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

// SetCombiner installs the payload merge hooks used when Combine is on.
func (m *MultiHop[T]) SetCombiner(c Combiner[T]) { m.comb = c }

// Stats returns a copy of the counters. Wire-level fault and stall activity
// lives inside the per-switch crossbars and is aggregated here.
func (m *MultiHop[T]) Stats() Stats {
	st := m.stats
	for _, s := range m.sws {
		xs := s.xb.Stats()
		st.Stalled += xs.Stalled
		st.Dropped += xs.Dropped
		st.Duped += xs.Duped
	}
	return st
}

// StatsGroup returns the fabric's performance-counter group.
func (m *MultiHop[T]) StatsGroup() *stats.Group { return m.met.group }

// SetSpanTracer installs a request-lifecycle tracer: every frame admitted to
// a switch crossbar becomes an async span on that switch's track.
func (m *MultiHop[T]) SetSpanTracer(tr *span.Tracer) { m.tr = tr }

// SetFaults arms per-switch wire fault injection (each switch salts its own
// deterministic streams) and, when network faults are configured, engages
// the per-hop reliability layer.
func (m *MultiHop[T]) SetFaults(fc fault.Config, inst string) {
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

// CanSend reports whether endpoint src can inject a packet this cycle. A
// full staging window may still absorb a combinable packet, so this is
// conservative, exactly like the flat crossbar's full-input check.
func (m *MultiHop[T]) CanSend(src int) bool {
	l := m.inj[src]
	return len(m.sws[l.sw].stage[l.port]) < m.cfg.Link.InputQDepth
}

// Send injects a packet at its source endpoint. It reports false when the
// first switch's staging window is full and the packet cannot combine
// (back-pressure).
func (m *MultiHop[T]) Send(p Packet[T]) bool {
	if p.Src < 0 || p.Src >= m.cfg.Nodes || p.Dst < 0 || p.Dst >= m.cfg.Nodes {
		panic(fmt.Sprintf("network: packet %d->%d outside %d nodes", p.Src, p.Dst, m.cfg.Nodes))
	}
	l := m.inj[p.Src]
	if !m.stageIn(l.sw, l.port, p) {
		return false
	}
	m.stats.Sent++
	m.met.sent.Inc()
	return true
}

// stageIn admits a packet into switch si's combining window at the given
// input port: merge into a staged same-key packet if combining allows,
// otherwise append (false when the window is full). Appends count as switch
// traversals; merges by design do not — the absorbed packet stops consuming
// bandwidth.
func (m *MultiHop[T]) stageIn(si, port int, p Packet[T]) bool {
	s := m.sws[si]
	if m.cfg.Combine && m.comb.Key != nil {
		if key, ok := m.comb.Key(p.Payload); ok {
			for q := range s.stage {
				for i := range s.stage[q] {
					st := &s.stage[q][i]
					if st.pkt.Dst != p.Dst {
						continue
					}
					if k2, ok2 := m.comb.Key(st.pkt.Payload); ok2 && k2 == key {
						st.pkt.Payload = m.comb.Merge(st.pkt.Payload, p.Payload)
						m.stats.Combined++
						m.met.combined.Inc()
						if m.comb.OnAbsorb != nil {
							m.comb.OnAbsorb(p.Payload)
						}
						return true
					}
				}
			}
		}
	}
	if len(s.stage[port]) >= m.cfg.Link.InputQDepth {
		return false
	}
	s.stage[port] = append(s.stage[port], hopFrame[T]{pkt: p, from: port})
	s.staged++
	m.stats.Hops++
	m.met.hops.Inc()
	if si == m.rootSw {
		m.stats.RootPkts++
		m.met.rootPkts.Inc()
	}
	return true
}

// HasArrival reports whether a delivered packet waits at endpoint dst.
func (m *MultiHop[T]) HasArrival(dst int) bool { return !m.outq[dst].Empty() }

// Peek returns the next deliverable packet at endpoint dst without consuming
// it.
func (m *MultiHop[T]) Peek(dst int) (Packet[T], bool) { return m.outq[dst].Peek() }

// Recv pops one delivered packet at endpoint dst, if available.
func (m *MultiHop[T]) Recv(dst int) (Packet[T], bool) {
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
// order; the phases keep a frame from traversing more than one switch per
// cycle. Each phase passes over idle switches, whose share of it is a no-op,
// so a cycle costs little more than the work of the switches carrying
// traffic.
func (m *MultiHop[T]) Tick(now uint64) {
	// Phase A: retransmissions first (they are the oldest traffic), then
	// staged frames claim the remaining input bandwidth.
	for si, s := range m.sws {
		if s.idle() {
			continue
		}
		if m.reliable {
			m.retransmit(s, now)
		}
		for port := range s.stage {
			for len(s.stage[port]) > 0 {
				f := s.stage[port][0]
				outp := m.route(si, f.pkt.Dst)
				if m.reliable {
					f.seq = m.seqCtr + 1
				}
				if !s.xb.Send(Packet[hopFrame[T]]{Src: port, Dst: outp, Payload: f}) {
					break
				}
				if m.reliable {
					m.seqCtr++
					s.pending[port] = append(s.pending[port], hopPending[T]{
						f: f, dst: outp, deadline: now + m.flt.RetryTimeout,
					})
					s.unacked++
				}
				if m.tr != nil {
					m.tr.SpanAsync(fmt.Sprintf("net.sw[%d]", si),
						fmt.Sprintf("pkt %d->%d", f.pkt.Src, f.pkt.Dst),
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
				hf := p.Payload
				if m.reliable {
					if _, dup := s.seen[port][hf.seq]; dup {
						// A retransmission (or injected duplicate) of a frame
						// already forwarded: consume, re-ack, drop.
						s.xb.Recv(port)
						m.ackHop(s, hf)
						m.stats.HopDups++
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
					m.acceptHop(s, port, hf)
					m.outq[link.node].MustPush(hf.pkt)
					m.waiting++
					m.stats.Delivered++
					m.met.delivered.Inc()
					continue
				}
				if link.sw < 0 {
					panic(fmt.Sprintf("network: switch %d routed out an unwired port %d", si, port))
				}
				if !m.stageIn(link.sw, link.port, hf.pkt) {
					break // downstream staging full: back-pressure
				}
				s.xb.Recv(port)
				m.acceptHop(s, port, hf)
				if m.cfg.Kind == MeshGraph {
					// Bisection accounting: crossings between columns
					// meshCut-1 and meshCut are the mesh's "root link".
					if (port == 1 && s.x == m.meshCut-1) || (port == 2 && s.x == m.meshCut) {
						m.stats.RootPkts++
						m.met.rootPkts.Inc()
					}
				}
			}
		}
	}
}

// acceptHop settles reliability state for a frame that cleared switch s:
// mark its sequence delivered at the output port and acknowledge the input
// port's retransmission copy. Hop acks are internal switch state, so they
// settle the same cycle (no ack packets compete for bandwidth — consistent
// with real combining networks, whose switch acks ride dedicated wires).
func (m *MultiHop[T]) acceptHop(s *mhSwitch[T], port int, hf hopFrame[T]) {
	if !m.reliable {
		return
	}
	s.seen[port][hf.seq] = struct{}{}
	m.ackHop(s, hf)
}

// ackHop removes the frame's retransmission copy at its input port. Already
// acked frames (duplicates racing a retransmission) are ignored.
func (m *MultiHop[T]) ackHop(s *mhSwitch[T], hf hopFrame[T]) {
	pend := s.pending[hf.from]
	for i := range pend {
		if pend[i].f.seq != hf.seq {
			continue
		}
		s.pending[hf.from] = append(pend[:i], pend[i+1:]...)
		s.unacked--
		return
	}
}

// retransmit re-sends every pending frame of switch s whose ack deadline has
// passed, backing off exponentially (RetryTimeout << attempt, capped) and
// giving up — loudly — after MaxRetries. Oldest frames go first; a full
// crossbar input stops that port's sweep (the younger frames would only pile
// into the same congestion).
func (m *MultiHop[T]) retransmit(s *mhSwitch[T], now uint64) {
	for port := range s.pending {
		for i := range s.pending[port] {
			pf := &s.pending[port][i]
			if now < pf.deadline {
				continue
			}
			if pf.attempt >= m.flt.MaxRetries {
				panic(fmt.Sprintf("network: hop frame seq=%d unacked after %d attempts",
					pf.f.seq, pf.attempt+1))
			}
			if !s.xb.Send(Packet[hopFrame[T]]{Src: port, Dst: pf.dst, Payload: pf.f}) {
				break
			}
			pf.attempt++
			m.stats.HopRetrans++
			m.met.retrans.Inc()
			shift := pf.attempt
			if shift > m.flt.RetryBackoffCap {
				shift = m.flt.RetryBackoffCap
			}
			pf.deadline = now + m.flt.RetryTimeout<<uint(shift)
		}
	}
}

// NextEvent reports the earliest cycle at which the fabric can make
// progress (sim.FastForwarder): staged, queued, or deliverable traffic is
// work now; otherwise the earliest wire completion or retransmission
// deadline.
func (m *MultiHop[T]) NextEvent(now uint64) uint64 {
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
		for port := range s.pending {
			for i := range s.pending[port] {
				if d := s.pending[port][i].deadline; d < ev {
					ev = d
				}
			}
		}
	}
	if ev < now {
		return now
	}
	return ev
}

// Skip is a no-op: every state change in the fabric is reported by
// NextEvent as work, so skipped cycles carry no batch effects.
func (m *MultiHop[T]) Skip(now, cycles uint64) {}

// Busy reports whether any packet is staged, queued, in flight, awaiting an
// ack, or undelivered.
func (m *MultiHop[T]) Busy() bool {
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

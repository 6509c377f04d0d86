// Package multinode models the multi-node scatter-add system of §3.2 and
// §4.5: 2-8 nodes, each a copy of the single-node memory system (scatter-add
// units, stream-cache banks, DRAM channels) owning a block of the global
// address space, connected by an input-queued crossbar with back-pressure.
//
// Two operating modes follow the paper:
//
//   - Direct: every scatter-add request to a remote address crosses the
//     network and is merged into the owner's scatter-add units, which
//     guarantee atomicity because "a node can only directly access its own
//     part of the global memory".
//
//   - Combining: the two-phase optimization — a local phase scatter-adds
//     remote data into the node's own cache, allocating missing lines with
//     the identity value instead of fetching them, and a global phase
//     sum-backs evicted lines to their owners, finished by a
//     flush-with-sum-back synchronization step.
//
// The experiment driver replays scatter-add reference traces (the Figure 13
// workloads) and reports achieved additions/cycle and GB/s.
//
// Beyond the paper, Config.Topology selects the interconnect the nodes sit
// on: the flat crossbar above, the hypercube sum-back hierarchy, or a
// multi-hop k-ary tree / 2D mesh of switches (network.MultiHop) with optional
// Ultracomputer-style combining inside every switch — same-address
// scatter-add packets that meet in a switch merge before they ever reach the
// owner. Multi-hop fabrics carry their own per-hop reliability (seq, ack,
// retransmit, dedup at every switch), so the end-to-end link layer below
// stays off for them even under injected network faults.
package multinode

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"scatteradd/internal/cache"
	"scatteradd/internal/cluster"
	"scatteradd/internal/dram"
	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/network"
	"scatteradd/internal/saunit"
	"scatteradd/internal/sim"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// sumBackTag marks the IDs of sum-back requests generated when combining
// caches evict partial lines. Sum-backs are internal traffic; the tag keeps
// them from aliasing a traced (node, id) pair from the replayed trace. Bit 62
// is used because bit 63 is reserved by the scatter-add unit for its own
// internal memory traffic.
const sumBackTag = uint64(1) << 62

// ackOut is a queued acknowledgment awaiting network injection (16 bytes,
// where a ready ack packet would be 72: the ackbox grows under chaos).
type ackOut struct {
	seq uint64
	dst int
}

// Ref is one scatter-add reference of a trace.
type Ref struct {
	Addr mem.Addr
	Val  mem.Word
}

// Config describes the multi-node system.
type Config struct {
	Nodes     int
	OwnerSpan mem.Addr // words of address space owned per node (block partition)

	// Topology selects the interconnect and combining placement (see
	// topology.go). The zero value is the paper's flat crossbar without
	// combining.
	Topology Topology

	IssueRate int // trace references issued per node per cycle

	// LegacyStepping forces per-cycle stepping, disabling the quiescence
	// fast-forward over dead cycles (kept for differential testing).
	LegacyStepping bool

	// Shards has no effect: a simulation runs on its caller's goroutine.
	//
	// Deprecated: Shards is ignored.
	Shards int

	// Faults enables deterministic fault injection across the system (wire
	// drops/duplications, DRAM stalls and outage windows, combining-store
	// and partial-line parity faults, FU transients) plus the recovery
	// machinery that keeps reductions bit-exact: the reliable link layer and
	// combining-to-direct degradation. The zero value disables everything
	// and leaves timing bit-identical to a build without injection.
	Faults fault.Config

	Net   network.Config
	Cache cache.Config
	SA    saunit.Config
	DRAM  dram.Config
}

// DefaultConfig returns nodes copies of the Table 1 node over a crossbar
// with the given per-port bandwidth (1 = the paper's low configuration,
// 8 = high), owning span words each.
func DefaultConfig(nodes int, wordsPerCyc int, span mem.Addr) Config {
	net := network.DefaultConfig(nodes)
	net.WordsPerCyc = wordsPerCyc
	return Config{
		Nodes:     nodes,
		OwnerSpan: span,
		IssueRate: 8,
		Net:       net,
		Cache:     cache.DefaultConfig(),
		SA:        saunit.DefaultConfig(),
		DRAM:      dram.DefaultConfig(),
	}
}

// node is one participant.
type node struct {
	id int

	// mem is the node's memory side, nil until the node first touches it
	// (see System.touch). A node that only sends remote references never
	// builds one.
	mem *memory

	// The node's share of the trace is refs[id+k*Nodes] for k < share, read
	// in place from the replayed slice; issued counts the ones sent.
	share  int
	issued int

	// Reliable link layer (active only with network faults injected; fault
	// free, Seq stays zero and no acks exist): data packets carry a link
	// sequence number, receivers acknowledge and deduplicate by it, and
	// senders resend unacked packets. The ackbox is deliberately unbounded:
	// acks free sender resources rather than consume receiver ones, so
	// bounding them would let data-plane back-pressure starve the very
	// traffic that relieves it (an ack-credit deadlock, observed in practice
	// under retransmission storms).
	unacked  network.RetransmitBuffer // sent data packets awaiting acks
	seen     map[uint64]struct{}      // delivered seqs, for duplicate-safe replay
	ackbox   []ackOut                 // acks awaiting network injection, from ackHead on
	ackHead  int                      // next ack of ackbox to send
	degraded bool                     // combining store tripped: fall back to direct

	// Activity-driven stepping (fast-forward only; see stepActive). next
	// caches nodeNextEvent and busy the node's share of done, both as of the
	// last cycle the node worked. A node sleeps until next or a fabric
	// arrival.
	next uint64
	busy bool
}

// acksPending returns the acks queued and not yet sent.
func (n *node) acksPending() int { return len(n.ackbox) - n.ackHead }

// memory is a node's memory side: its scatter-add units, cache banks,
// combining banks and DRAM, the cluster that steps them, and the queues
// between them and the network.
type memory struct {
	sas    []*saunit.Unit
	banks  []*cache.Bank
	dram   *dram.DRAM
	comb   []*cache.Bank           // CombineLocal banks (combining mode only)
	cl     *cluster.Cluster        // steps sas, banks, comb and dram
	inbox  *sim.Queue[mem.Request] // staged network arrivals
	outbox *sim.Queue[mem.Request] // sum-backs and remote requests awaiting the network
}

// Result reports a trace replay.
type Result struct {
	Nodes  int
	Adds   uint64
	Cycles uint64

	NetStats network.Stats
	SAReads  uint64 // memory reads issued by all scatter-add units
	SumBacks uint64 // partial lines sent back in combining mode

	// Resilience outcomes (zero without fault injection).
	Retransmits uint64 // data frames re-sent after an ack timeout
	DupsDropped uint64 // received duplicates discarded by seq dedup
	Degraded    int    // nodes that fell back from combining to direct
}

// AddsPerCycle returns achieved scatter-add throughput. An empty replay
// takes no cycles in any mode, so its throughput is undefined (NaN), as is
// its GBps.
func (r Result) AddsPerCycle() float64 { return float64(r.Adds) / float64(r.Cycles) }

// GBps returns the paper's Figure 13 metric: 8-byte additions per 1 GHz
// cycle expressed in GB/s.
func (r Result) GBps() float64 { return r.AddsPerCycle() * 8 }

// linkStats counts the reliable link layer's events, and the nodes that
// degraded from combining to direct.
type linkStats struct {
	Retransmits uint64 // retransmissions after ack timeout
	AcksSent    uint64 // acknowledgments sent
	DupsDropped uint64 // received duplicates dropped by dedup
	Degraded    uint64 // nodes degraded from combining to direct
}

// linkMetrics is the snapshot descriptor of the system's own counters. A
// snapshot carries them, as the link group, only when fault injection is on,
// so fault-free stats output has no link group.
var linkMetrics = []stats.Metric[System]{
	stats.Count("retransmits", func(s *System) uint64 { return s.link.Retransmits }),
	stats.Count("acks_sent", func(s *System) uint64 { return s.link.AcksSent }),
	stats.Count("dups_dropped", func(s *System) uint64 { return s.link.DupsDropped }),
	stats.Count("nodes_degraded", func(s *System) uint64 { return s.link.Degraded }),
	stats.Hist("retries", func(s *System) *stats.Histogram { return &s.retries }),
}

// System is the multi-node machine.
type System struct {
	cfg   Config
	topo  Topology // cfg.Topology with defaults applied (see normalized)
	kind  mem.Kind
	nodes []*node
	refs  []Ref // the trace being replayed (see load)
	xbar  network.Fabric
	mh    *network.MultiHop // xbar when it is a multi-hop fabric, else nil
	now   uint64

	ff bool // fast-forward over quiescent cycles

	// Activity-driven stepping state (fast-forward only). Each node is
	// filed by its cached next: in ready when it is due now, in cal at that
	// cycle when it is due later, nowhere when it waits only on an arrival.
	active    []*node      // nodes worked this cycle (stepActive scratch)
	ready     []uint64     // bitset of the nodes due now
	nready    int          // nodes in ready
	cal       sim.Calendar // the nodes due at a later cycle
	busyNodes int          // nodes whose cached busy flag is set

	tr         *span.Tracer
	sumBackSeq uint64

	// Fault injection and recovery (inactive on the zero config).
	flt       fault.Config
	reliable  bool // link-layer acks/retries/dedup engaged
	degradeAt uint64
	linkSeq   uint64
	link      linkStats
	retries   stats.Histogram // transmissions needed per acked frame (0 = first try)
}

// New constructs the system for traces of the given combine kind. It builds
// the fabric and the nodes' link state; each node's memory side is built at
// its first touch.
func New(cfg Config, kind mem.Kind) *System {
	if cfg.Nodes < 1 || cfg.OwnerSpan < 1 || cfg.IssueRate < 1 {
		panic(fmt.Sprintf("multinode: invalid config %+v", cfg))
	}
	if !kind.IsScatterAdd() || kind.IsFetch() {
		panic(fmt.Sprintf("multinode: unsupported trace kind %v", kind))
	}
	topo := cfg.Topology.normalized(cfg.Nodes)
	s := &System{cfg: cfg, topo: topo, kind: kind, ff: !cfg.LegacyStepping}
	s.active = make([]*node, 0, cfg.Nodes)
	s.ready = make([]uint64, (cfg.Nodes+63)/64)
	s.cal = sim.NewCalendar(cfg.Nodes)
	if topo.multiHop() {
		s.mh = network.NewMultiHop(network.MultiHopConfig{
			Kind:    topo.graphKind(),
			Nodes:   cfg.Nodes,
			FanIn:   topo.FanIn,
			MeshX:   topo.MeshX,
			MeshY:   topo.MeshY,
			Combine: topo.CombineSwitch,
			Link:    cfg.Net,

			LegacyStepping: cfg.LegacyStepping,
		})
		s.xbar = s.mh
	} else {
		s.xbar = network.New(cfg.Net)
	}
	injecting := cfg.Faults.Enabled()
	if injecting {
		s.flt = cfg.Faults.WithDefaults()
		// Multi-hop fabrics recover losses hop-by-hop inside the network
		// (their SetFaults engages per-switch seq/ack/retransmit/dedup), so
		// the end-to-end link layer stays off for them.
		s.reliable = s.flt.NetFaults() && !topo.multiHop()
		s.degradeAt = s.flt.DegradeThreshold
		s.xbar.SetFaults(s.flt, "mn")
		s.retries = stats.NewHistogram(s.flt.MaxRetries + 1)
	}
	nodes := make([]node, cfg.Nodes)
	s.nodes = make([]*node, cfg.Nodes)
	for id := range nodes {
		n := &nodes[id]
		n.id = id
		if s.reliable {
			n.seen = make(map[uint64]struct{})
		}
		s.nodes[id] = n
	}
	return s
}

// touch returns node n's memory side, building it at the node's first
// touch: its first local reference, its first data packet received or its
// first combining-bank use. Until then the node's memory is an idle one
// that nothing has reached, and building it late is exact: its fault
// streams are keyed by component name and event index, DRAM outage windows
// are a stateless schedule of the cycle, a new stats.Level counts level-0
// samples from cycle 0, and the idle Tick its cluster first runs changes
// nothing.
func (s *System) touch(n *node) *memory {
	if n.mem == nil {
		n.mem = s.newMemory(n.id)
	}
	return n.mem
}

// newMemory builds node id's memory side, with the fault injectors and the
// span tracer the system has installed.
func (s *System) newMemory(id int) *memory {
	cfg := s.cfg
	injecting := cfg.Faults.Enabled()
	m := &memory{
		dram:   dram.New(cfg.DRAM),
		inbox:  sim.NewQueue[mem.Request](64),
		outbox: sim.NewQueue[mem.Request](64),
	}
	if injecting {
		m.dram.SetFaults(s.flt, fmt.Sprintf("n%d", id))
	}
	for b := 0; b < cfg.Cache.Banks; b++ {
		bank := cache.NewBank(cfg.Cache, b, m.dram, cache.Normal)
		m.banks = append(m.banks, bank)
		m.sas = append(m.sas, saunit.New(cfg.SA, bank))
		if injecting {
			bank.SetFaults(s.flt, fmt.Sprintf("n%d.b%d", id, b))
			m.sas[b].SetFaults(s.flt, fmt.Sprintf("n%d.b%d", id, b))
		}
		if s.topo.CombineCache {
			cb := cache.NewBank(cfg.Cache, b, nil, cache.CombineLocal)
			cb.SetZeroKind(s.kind)
			if injecting {
				cb.SetFaults(s.flt, fmt.Sprintf("n%d.c%d", id, b))
			}
			m.comb = append(m.comb, cb)
		}
	}
	m.cl = cluster.New(m.sas, m.banks, m.comb, m.dram, nil, s.ff)
	if s.tr != nil {
		m.setSpanTracer(s.tr, id)
	}
	return m
}

// StatsSnapshot returns the current values of every performance counter in
// the system: the link layer's under fault injection, the fabric's, and each
// node's DRAM, cache, combining and scatter-add groups, read through their
// types' descriptors under the instance names formatted here. Every node not
// yet touched prints one idle memory side built here and kept nowhere, so it
// reads as the idle node it stands for: zero counts, and one level-0
// occupancy sample per cycle.
func (s *System) StatsSnapshot() stats.Snapshot {
	var es []stats.Entry
	if s.cfg.Faults.Enabled() {
		es = stats.Append(es, "link", linkMetrics, s)
	}
	switch f := s.xbar.(type) {
	case *network.Crossbar:
		es = stats.Append(es, "net", network.CrossbarMetrics, f)
	case *network.MultiHop:
		es = stats.Append(es, "net", network.MultiHopMetrics, f)
	}
	var idle *memory // printed for every untouched node
	for _, n := range s.nodes {
		m := n.mem
		if m == nil {
			if idle == nil {
				idle = s.newMemory(n.id)
				idle.cl.FlushStats(s.now)
			}
			m = idle
		} else {
			m.cl.FlushStats(s.now)
		}
		es = stats.Append(es, fmt.Sprintf("dram[%d]", n.id), dram.Metrics, m.dram)
		for b := range m.banks {
			es = stats.Append(es, fmt.Sprintf("cache[%d.%d]", n.id, b), cache.Metrics, m.banks[b])
			es = stats.Append(es, fmt.Sprintf("saunit[%d.%d]", n.id, b), saunit.Metrics, m.sas[b])
		}
		for b, cb := range m.comb {
			es = stats.Append(es, fmt.Sprintf("comb[%d.%d]", n.id, b), cache.Metrics, cb)
		}
	}
	return stats.NewSnapshot(es)
}

// SetSpanTracer installs a request-lifecycle tracer across the whole system:
// the crossbar plus every node's DRAM, cache banks, scatter-add units, and
// (in combining mode) combining banks, each on a node-qualified track. A
// node's memory side built later gets the tracer at its build. A nil tracer
// disables tracing.
func (s *System) SetSpanTracer(tr *span.Tracer) {
	s.tr = tr
	s.xbar.SetSpanTracer(tr)
	for _, n := range s.nodes {
		if n.mem != nil {
			n.mem.setSpanTracer(tr, n.id)
		}
	}
}

// setSpanTracer installs tr on node id's memory components.
func (m *memory) setSpanTracer(tr *span.Tracer, id int) {
	m.dram.SetSpanTracer(tr, fmt.Sprintf("dram[%d]", id))
	for b := range m.banks {
		m.banks[b].SetSpanTracer(tr, fmt.Sprintf("cache[%d.%d]", id, b))
		m.sas[b].SetSpanTracer(tr, fmt.Sprintf("saunit[%d.%d]", id, b))
	}
	for b := range m.comb {
		m.comb[b].SetSpanTracer(tr, fmt.Sprintf("comb[%d.%d]", id, b))
	}
}

// SpanTracer returns the installed tracer, if any.
func (s *System) SpanTracer() *span.Tracer { return s.tr }

// owner returns the node owning an address.
func (s *System) owner(a mem.Addr) int {
	o := int(a / s.cfg.OwnerSpan)
	if o >= s.cfg.Nodes {
		panic(fmt.Sprintf("multinode: address %d beyond %d nodes x %d span", a, s.cfg.Nodes, s.cfg.OwnerSpan))
	}
	return o
}

// localUnit returns the node's scatter-add unit for address a.
func (m *memory) localUnit(a mem.Addr) *saunit.Unit {
	return m.sas[cache.BankOf(a.Line(), len(m.banks))]
}

// hypercube reports whether sum-backs route along hypercube dimensions.
func (s *System) hypercube() bool { return s.topo.Kind == TopoHypercube }

// combBank returns the node's combining bank for address a.
func (m *memory) combBank(a mem.Addr) *cache.Bank {
	return m.comb[cache.BankOf(a.Line(), len(m.comb))]
}

// RunTrace partitions refs round-robin over the nodes, replays them, and
// runs to global quiescence (including the flush-with-sum-back rounds when
// combining). It returns the achieved throughput.
func (s *System) RunTrace(refs []Ref) Result {
	s.load(refs)
	start := s.now
	limit := s.now + 2_000_000_000
	runPhase := func() {
		s.rescan()
		for !s.done() {
			// Jump over quiescent stretches (all queues empty, every timer in
			// the future); clamp to just past the limit so a drained-but-
			// not-done state (Never) still trips the deadlock check.
			h := s.now
			if s.ff {
				h = s.nextEvent()
			}
			if h > s.now {
				if h > limit {
					h = limit + 1
				}
				s.skipTo(h)
			} else if s.ff {
				s.stepActive()
			} else {
				s.step()
			}
			if s.now > limit {
				panic("multinode: trace did not drain; flow-control deadlock")
			}
		}
	}
	// Local phase: replay the trace.
	runPhase()
	if s.topo.CombineCache {
		// Global phase: flush-with-sum-back. Direct combining needs one
		// round (evictions go straight to the owner); hierarchical
		// combining needs one round per hypercube dimension, each moving
		// partial lines one hop closer to their owners while merging them.
		rounds := 1
		if s.hypercube() {
			rounds = log2(s.cfg.Nodes)
		}
		// An untouched node's combining banks hold nothing to flush.
		for r := 0; r < rounds; r++ {
			for _, n := range s.nodes {
				if n.mem != nil {
					n.mem.cl.StartFlush(s.now)
				}
			}
			runPhase()
		}
		// Every partial sum must have reached its owner by now.
		for _, n := range s.nodes {
			if n.mem == nil {
				continue
			}
			for _, cb := range n.mem.comb {
				if left := cb.ResidentPartialLines(); len(left) > 0 {
					panic(fmt.Sprintf("multinode: node %d retains %d partial lines after %d flush rounds",
						n.id, len(left), rounds))
				}
			}
		}
	}
	res := Result{
		Nodes:    s.cfg.Nodes,
		Adds:     uint64(len(refs)),
		Cycles:   s.now - start,
		NetStats: s.xbar.Stats(),
	}
	for _, n := range s.nodes {
		if n.mem == nil {
			continue
		}
		for _, u := range n.mem.sas {
			res.SAReads += u.Stats().MemReads
		}
		for _, cb := range n.mem.comb {
			res.SumBacks += cb.Stats().SumBacks
		}
		if n.degraded {
			res.Degraded++
		}
	}
	if s.reliable {
		res.Retransmits = s.link.Retransmits
		res.DupsDropped = s.link.DupsDropped
	} else {
		// Multi-hop fabrics recover losses per hop inside the network;
		// surface their counters through the same Result fields.
		res.Retransmits = res.NetStats.HopRetrans
		res.DupsDropped = res.NetStats.HopDups
	}
	return res
}

// load makes refs the trace to replay, partitioned round-robin: node id
// issues refs[id], refs[id+Nodes], ... in that order, read in place.
func (s *System) load(refs []Ref) {
	s.refs = refs
	nn := len(s.nodes)
	for _, n := range s.nodes {
		n.share = (len(refs) - n.id + nn - 1) / nn
		n.issued = 0
	}
}

// nextEvent returns the earliest cycle at which any part of the system can
// do work (the multi-node analogue of the single machine's horizon): the
// earliest cached node event, or the fabric's, whichever comes first. A
// packet waiting at a sleeping node is fabric work now.
func (s *System) nextEvent() uint64 {
	nodeMin := s.nodeMin()
	if nodeMin <= s.now {
		return s.now
	}
	return max(s.now, min(nodeMin, s.xbar.NextEvent(s.now)))
}

// nodeMin returns the earliest cached next over all nodes: now while a node
// is ready, else the calendar's earliest.
func (s *System) nodeMin() uint64 {
	if s.nready > 0 {
		return s.now
	}
	_, at := s.cal.Next()
	return at
}

// nodeNextEvent returns the earliest cycle at which one node can do work:
// now while it has requests to issue, arrivals or sends staged, or evicted
// lines to turn into sum-backs; otherwise its earliest resend deadline or
// its cluster's earliest due component. An untouched node's memory has no
// event.
func (s *System) nodeNextEvent(n *node) uint64 {
	m := n.mem
	if n.issued < n.share || m != nil && (!m.inbox.Empty() || !m.outbox.Empty() || m.cl.Evicting()) {
		return s.now
	}
	ev := sim.Never
	if s.reliable {
		if n.acksPending() > 0 {
			return s.now
		}
		// Unacked packets wake the system at their resend deadlines.
		ev = n.unacked.NextDeadline()
	}
	if m != nil {
		ev = min(ev, m.cl.NextEvent(s.now))
	}
	return ev
}

// skipTo jumps the clock to cycle h. An idle cycle changes no node, so the
// nodes need no catching up; a multi-hop fabric's sleeping switches credit
// their stalls when they next run.
func (s *System) skipTo(h uint64) { s.now = h }

// refresh recomputes node n's cached next event and busy flag.
func (s *System) refresh(n *node) {
	n.next = s.nodeNextEvent(n)
	if b := s.nodeBusy(n); b != n.busy {
		n.busy = b
		if b {
			s.busyNodes++
		} else {
			s.busyNodes--
		}
	}
}

// file puts node n, just refreshed, where its cached next says: the ready
// set when it is due now, the calendar when it is due later, and neither
// when only an arrival can wake it.
func (s *System) file(n *node) {
	switch {
	case n.next <= s.now:
		s.cal.Remove(n.id)
		s.ready[n.id>>6] |= 1 << (n.id & 63)
		s.nready++
	case n.next == sim.Never:
		s.cal.Remove(n.id)
	default:
		s.cal.Set(n.id, n.next)
	}
}

// rescan refreshes and files every node at the start of a phase, after
// state changed outside stepActive (a new trace share, a flush round).
func (s *System) rescan() {
	if !s.ff {
		return
	}
	clear(s.ready)
	s.nready = 0
	s.cal.Clear()
	for _, n := range s.nodes {
		s.refresh(n)
		s.file(n)
	}
}

// stepActive is step under fast-forward: only the nodes with a fabric
// arrival or a due event work this cycle, in node order, with exchange
// halves before compute halves as in step. Every other node's share of the
// cycle would be a no-op. The nodes whose calendar cycle has come join the
// ready set first; the walk then visits the union of the ready set and the
// fabric's arrival set. A node's next changes only when it is refreshed
// after working, and its arrivals only in the fabric's Tick and its own
// Recv, so no exchange half changes whether a later node is in the union.
// The loop does not allocate.
func (s *System) stepActive() {
	for id, at := s.cal.Next(); at <= s.now; id, at = s.cal.Next() {
		s.cal.Remove(id)
		s.ready[id>>6] |= 1 << (id & 63)
		s.nready++
	}
	act := s.active[:0]
	arr := s.xbar.Arrivals()
	for w := range s.ready {
		for b := s.ready[w] | arr[w]; b != 0; b &= b - 1 {
			n := s.nodes[w<<6|bits.TrailingZeros64(b)]
			s.stepNodeExchange(n)
			act = append(act, n)
		}
	}
	for _, n := range act {
		s.stepNodeCompute(n)
	}
	s.xbar.Tick(s.now)
	s.now++
	clear(s.ready)
	s.nready = 0
	for _, n := range act {
		s.refresh(n)
		s.file(n)
	}
	s.active = act
}

// step advances the whole system one cycle under legacy stepping: every
// node's exchange half in node order, then every node's compute half in
// node order, then the crossbar tick that moves frames between ports. It is
// the per-cycle reference that stepActive must match.
func (s *System) step() {
	for _, n := range s.nodes {
		s.stepNodeExchange(n)
	}
	for _, n := range s.nodes {
		s.stepNodeCompute(n)
	}
	s.xbar.Tick(s.now)
	s.now++
}

// stepNodeExchange is the network-facing half of a node's cycle: network
// arrivals, inbox injection, trace issue, sum-back draining, link
// maintenance, and outbox draining.
func (s *System) stepNodeExchange(n *node) {
	// Stage network arrivals. Acks are consumed unconditionally — they only
	// shrink the sender's retransmission buffer, and holding them behind
	// data-plane back-pressure would deadlock the link (the sender resends
	// into the congestion the unread acks would clear). Data packets wait
	// for inbox room, which drains through the scatter-add pipeline
	// independently of the network; the first one a node receives builds
	// its memory side.
	for {
		if h := s.xbar.Peek(n.id); h == nil || !h.Ack && s.touch(n).inbox.Full() {
			break
		}
		p, _ := s.xbar.Recv(n.id)
		if p.Ack {
			// Acks for packets already released (duplicated acks, or acks
			// racing a resend) are ignored.
			if resends, ok := n.unacked.Ack(p.Seq); ok {
				s.retries.Observe(resends)
			}
			continue
		}
		if s.reliable {
			// Always ack — the sender may be resending a packet whose first
			// ack was lost — but deliver each sequence number exactly once,
			// which is what makes replayed scatter-adds idempotent.
			n.ackbox = append(n.ackbox, ackOut{seq: p.Seq, dst: int(p.Src)})
			if _, dup := n.seen[p.Seq]; dup {
				s.link.DupsDropped++
				continue
			}
			n.seen[p.Seq] = struct{}{}
		}
		n.mem.inbox.MustPush(p.Req)
	}
	// Inject staged arrivals: owned addresses go to the local scatter-add
	// path; in hierarchical combining, in-transit partials for other owners
	// merge into this hop's combining cache.
	if m := n.mem; m != nil {
		for {
			p := m.inbox.Peek()
			if p == nil {
				break
			}
			r := *p
			if s.owner(r.Addr) == n.id {
				u := m.localUnit(r.Addr)
				if !u.CanAccept(s.now) || !u.Accept(s.now, r) {
					break
				}
				// Remote request reached its owner: back in a bank queue.
				s.tr.OpStage(r.Node, r.ID, span.StageBankQ, s.now)
			} else {
				if !s.hypercube() {
					panic(fmt.Sprintf("multinode: node %d received request for node %d without hierarchy",
						n.id, s.owner(r.Addr)))
				}
				cb := m.combBank(r.Addr)
				if !cb.CanAccept(s.now) || !cb.Accept(s.now, r) {
					break
				}
			}
			m.inbox.Pop()
		}
	}
	// Issue this node's trace share.
	for k := 0; k < s.cfg.IssueRate && n.issued < n.share; k++ {
		ref := s.refs[n.id+n.issued*len(s.nodes)]
		req := mem.Request{ID: uint64(n.issued), Kind: s.kind, Addr: ref.Addr, Val: ref.Val, Node: n.id}
		// A combining switch can absorb the request inside routeRequest —
		// before its span exists, so the fabric cannot end it.
		merged := s.merged()
		if !s.routeRequest(n, req) {
			break
		}
		if s.tr != nil && s.tr.SampleNext() {
			s.tr.OpBegin(n.id, req.ID, req.Kind, req.Addr, s.now)
			if s.merged() != merged {
				// Merged into another in-flight request at the injection
				// switch: the op's whole life is this cycle.
				s.tr.OpEnd(n.id, req.ID, s.now)
			} else if !s.topo.CombineCache && s.owner(req.Addr) != n.id {
				// Direct mode: the request is already on the wire.
				s.tr.OpStage(n.id, req.ID, span.StageNet, s.now)
			}
		}
		n.issued++
	}
	// Convert evicted partial lines into sum-back requests (a whole line
	// needs LineWords outbox slots).
	if m := n.mem; m != nil {
		for i := 0; i < len(m.comb) && m.cl.Evicting(); i++ {
			for m.outbox.Cap()-m.outbox.Len() >= mem.LineWords {
				ev, ok := m.cl.PopEvict(i, s.now)
				if !ok {
					break
				}
				s.queueSumBack(n, ev)
			}
		}
	}
	// Reliable link maintenance: acks leave first (a starved ack path would
	// turn every in-flight packet into a spurious resend), then overdue
	// packets are sent again.
	if s.reliable {
		for ; n.ackHead < len(n.ackbox); n.ackHead++ {
			a := n.ackbox[n.ackHead]
			if !s.xbar.Send(network.Packet{Src: int32(n.id), Dst: int32(a.dst), Seq: a.seq, Ack: true}) {
				break
			}
			s.link.AcksSent++
		}
		// Sent acks are reclaimed when the queue empties, or by one copy
		// of the rest once they make up more than half of it: O(1) per ack.
		if n.ackHead == len(n.ackbox) {
			n.ackbox, n.ackHead = n.ackbox[:0], 0
		} else if 2*n.ackHead > len(n.ackbox) {
			n.ackbox, n.ackHead = n.ackbox[:copy(n.ackbox, n.ackbox[n.ackHead:])], 0
		}
		s.link.Retransmits += uint64(n.unacked.Resend(s.now, &s.flt, s.xbar.Send))
	}
	// Drain the outbox into the network (or locally, for own addresses).
	if m := n.mem; m != nil {
		for {
			p := m.outbox.Peek()
			if p == nil {
				break
			}
			r := *p
			dst := s.sumBackDst(n.id, r.Addr)
			if dst == n.id {
				u := m.localUnit(r.Addr)
				if !u.CanAccept(s.now) || !u.Accept(s.now, r) {
					break
				}
			} else {
				if !s.sendRemote(n, dst, r) {
					break
				}
			}
			m.outbox.Pop()
		}
	}
}

// stepNodeCompute is the node-local half of a node's cycle: ticking the
// node's memory cluster (under fast-forward, only its due components) and
// discarding unit responses, which a trace replay never waits for. An
// untouched node's memory is idle, so its half is a no-op.
func (s *System) stepNodeCompute(n *node) {
	m := n.mem
	if m == nil {
		return
	}
	m.cl.Tick(s.now)
	// The degradation check follows the combining banks' turn: a scrub that
	// crosses the threshold happens in a combining bank's tick, which the
	// DRAM's tick and the fills after it in the cluster neither read nor
	// change, and the flush it starts steps from the next cycle on.
	s.checkDegrade(n, m)
	m.cl.PopResponses(s.now, discardResponse)
}

// discardResponse drops a unit response.
func discardResponse(mem.Response) {}

// routeRequest sends one trace reference on its way. It reports false when
// back-pressure blocked it.
func (s *System) routeRequest(n *node, req mem.Request) bool {
	dst := s.owner(req.Addr)
	if dst == n.id {
		u := s.touch(n).localUnit(req.Addr)
		return u.CanAccept(s.now) && u.Accept(s.now, req)
	}
	if s.topo.CombineCache && !n.degraded {
		// Local phase: combine into the node's own cache.
		cb := s.touch(n).combBank(req.Addr)
		return cb.CanAccept(s.now) && cb.Accept(s.now, req)
	}
	return s.sendRemote(n, dst, req)
}

// merged returns the packets in-switch combining has absorbed so far (0 on
// fabrics without it). Read around routeRequest, it tells whether the
// injection switch absorbed the request.
func (s *System) merged() uint64 {
	if s.mh == nil {
		return 0
	}
	return s.mh.Combined()
}

// sendRemote injects a data packet for req toward dst. In reliable mode the
// packet gets the next link sequence number and is held for resending until
// acked; the number is only consumed when the network accepts the packet,
// so back-pressure never perforates the sequence space.
func (s *System) sendRemote(n *node, dst int, req mem.Request) bool {
	p := network.Packet{Src: int32(n.id), Dst: int32(dst), Req: req}
	if s.reliable {
		p.Seq = s.linkSeq + 1
	}
	if !s.xbar.Send(p) {
		return false
	}
	if s.reliable {
		s.linkSeq++
		n.unacked.Hold(p.Seq, p, s.now+s.flt.RetryTimeout)
	}
	return true
}

// checkDegrade falls node n, with memory side m, back from combining to
// direct once its combining banks have scrubbed DegradeThreshold parity
// faults — the store is deemed unreliable: resident partials flush out to
// their owners and every subsequent remote reference crosses the network
// directly.
func (s *System) checkDegrade(n *node, m *memory) {
	if n.degraded || s.degradeAt == 0 || len(m.comb) == 0 {
		return
	}
	var faults uint64
	for _, cb := range m.comb {
		faults += cb.FaultCount()
	}
	if faults < s.degradeAt {
		return
	}
	n.degraded = true
	s.link.Degraded++
	m.cl.StartFlush(s.now)
}

// queueSumBack turns an evicted partial line into per-word scatter-add
// requests (a whole-line sum-back: every word of the line crosses the
// network, which is exactly the eviction overhead the paper observes for
// sparse address ranges).
func (s *System) queueSumBack(n *node, ev cache.EvictedLine) {
	for i := 0; i < mem.LineWords; i++ {
		id := sumBackTag | s.sumBackSeq
		s.sumBackSeq++
		n.mem.outbox.MustPush(mem.Request{
			ID: id, Kind: ev.Kind, Addr: ev.Line + mem.Addr(i), Val: ev.Data[i], Node: n.id,
		})
	}
}

// sumBackDst returns where node from sends a sum-back for addr: directly
// to the owner, or — in hierarchical mode — one hypercube hop toward it
// (flip the lowest differing address bit), merging partials along the way.
func (s *System) sumBackDst(from int, addr mem.Addr) int {
	own := s.owner(addr)
	if !s.hypercube() || own == from {
		return own
	}
	diff := from ^ own
	return from ^ (diff & -diff)
}

// log2 returns ceil(log2(n)) for n >= 1.
func log2(n int) int {
	lg := 0
	for v := 1; v < n; v <<= 1 {
		lg++
	}
	return lg
}

// done reports quiescence of the current phase. Under fast-forward it reads
// the nodes' cached busy flags, which only change on cycles a node works.
func (s *System) done() bool {
	if s.ff {
		return s.busyNodes == 0 && !s.xbar.Busy()
	}
	if s.xbar.Busy() {
		return false
	}
	for _, n := range s.nodes {
		if s.nodeBusy(n) {
			return false
		}
	}
	return true
}

// nodeBusy reports whether node n holds unfinished work of the current
// phase. An untouched node's memory holds none.
func (s *System) nodeBusy(n *node) bool {
	if n.issued < n.share {
		return true
	}
	if s.reliable && (n.unacked.Len() > 0 || n.acksPending() > 0) {
		return true
	}
	m := n.mem
	return m != nil && (!m.inbox.Empty() || !m.outbox.Empty() || m.cl.Busy())
}

// Verify checks the memory left by RunTrace(refs) against the sequential
// reference: every address from 0 to the highest one refs touch must hold
// the in-order fold of its references, starting from zero, so untouched
// addresses must read zero. Integer kinds must match exactly.
// Floating-point kinds match within 1e-9 relative, because combining
// reorders their additions. The reference is kept for the touched addresses
// only, and the memory is read back one page at a time, so a sparse trace
// over a wide range costs memory in proportion to its length.
func (s *System) Verify(refs []Ref) error {
	// Fold the references into sorted (address, value) pairs. Sorting on
	// (address, trace index) keeps each address's references in trace order,
	// as a stable sort on the address would, at the cost of an unstable one.
	type indexed struct {
		Ref
		i int
	}
	want := make([]indexed, len(refs))
	for i, r := range refs {
		want[i] = indexed{r, i}
	}
	slices.SortFunc(want, func(a, b indexed) int {
		return cmp.Or(cmp.Compare(a.Addr, b.Addr), cmp.Compare(a.i, b.i))
	})
	n := 0
	for i := 0; i < len(want); n++ {
		acc := Ref{Addr: want[i].Addr}
		for ; i < len(want) && want[i].Addr == acc.Addr; i++ {
			acc.Val = mem.Combine(s.kind, acc.Val, want[i].Val)
		}
		want[n] = indexed{Ref: acc}
	}
	want = want[:n]
	var span mem.Addr
	if n > 0 {
		span = want[n-1].Addr + 1
	}
	check := func(a mem.Addr, got, want mem.Word) error {
		if !s.kind.IsFP() {
			if got != want {
				return fmt.Errorf("multinode: address %d = %d, want %d", a, mem.AsI64(got), mem.AsI64(want))
			}
			return nil
		}
		g, w := mem.AsF64(got), mem.AsF64(want)
		if math.Abs(g-w) > 1e-9*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("multinode: address %d = %g, want %g", a, g, w)
		}
		return nil
	}
	s.flushResult()
	const page = 4096
	buf := make([]mem.Word, min(span, page))
	for base := mem.Addr(0); base < span; base += page {
		got := buf[:min(span-base, page)]
		s.readRange(base, got)
		for i, g := range got {
			a, w := base+mem.Addr(i), mem.Word(0)
			if len(want) > 0 && want[0].Addr == a {
				w, want = want[0].Val, want[1:]
			}
			if err := check(a, g, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadResult returns the final value at each address in addrs, flushing all
// node caches functionally first. Use it to verify a replay against a
// sequential reference. Each run of consecutive addresses is read with
// readRange.
func (s *System) ReadResult(addrs []mem.Addr) []mem.Word {
	s.flushResult()
	out := make([]mem.Word, len(addrs))
	for i := 0; i < len(addrs); {
		j := i + 1
		for j < len(addrs) && addrs[j] == addrs[i]+mem.Addr(j-i) {
			j++
		}
		s.readRange(addrs[i], out[i:j])
		i = j
	}
	return out
}

// flushResult writes every touched node's dirty cache lines to its memory
// functionally, so the stores hold the final values.
func (s *System) flushResult() {
	for _, n := range s.nodes {
		if n.mem == nil {
			continue
		}
		for _, b := range n.mem.banks {
			b.FlushFunctional(s.now)
		}
	}
}

// readRange reads the consecutive addresses from a into dst from their
// owners' stores, one LoadRange per owner block the range crosses. An
// untouched owner's store reads 0.
func (s *System) readRange(a mem.Addr, dst []mem.Word) {
	for len(dst) > 0 {
		own := s.owner(a)
		k := min(mem.Addr(len(dst)), mem.Addr(own+1)*s.cfg.OwnerSpan-a)
		if m := s.nodes[own].mem; m != nil {
			m.dram.Store().LoadRange(a, dst[:k])
		} else {
			clear(dst[:k])
		}
		a, dst = a+k, dst[k:]
	}
}

package network

import (
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/sim"
	"scatteradd/internal/span"
)

// mhPump ticks the fabric and drains every endpoint each cycle.
func mhPump(m *MultiHop, now *uint64, cycles int, recv func(dst int, p Packet)) {
	for c := 0; c < cycles; c++ {
		m.Tick(*now)
		for d := 0; d < m.cfg.Nodes; d++ {
			for {
				p, ok := m.Recv(d)
				if !ok {
					break
				}
				if recv != nil {
					recv(d, p)
				}
			}
		}
		*now++
	}
}

func treeConfig(nodes, fanIn int) MultiHopConfig {
	cfg := DefaultMultiHopConfig(nodes)
	cfg.FanIn = fanIn
	return cfg
}

func meshConfig(nodes int) MultiHopConfig {
	cfg := DefaultMultiHopConfig(nodes)
	cfg.Kind = MeshGraph
	cfg.FanIn = 0
	return cfg
}

// allPairs sends one tagged packet per (src, dst) pair and checks every one
// arrives at the right endpoint exactly once.
func allPairs(t *testing.T, cfg MultiHopConfig) {
	t.Helper()
	n := cfg.Nodes
	m := NewMultiHop(cfg)
	got := make(map[int]int) // tag -> deliveries
	now := uint64(0)
	recv := func(d int, p Packet) {
		if d != int(p.Dst) || tag(p) != int(p.Src)*n+int(p.Dst) {
			t.Fatalf("packet %d->%d tag %d delivered at %d", p.Src, p.Dst, tag(p), d)
		}
		got[tag(p)]++
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			for !m.Send(tagged(src, dst, src*n+dst)) {
				mhPump(m, &now, 1, recv)
			}
		}
	}
	for c := 0; c < 100*n && m.Busy(); c++ {
		mhPump(m, &now, 1, recv)
	}
	if m.Busy() {
		t.Fatal("fabric still busy after drain window")
	}
	if len(got) != n*n {
		t.Fatalf("delivered %d of %d pairs", len(got), n*n)
	}
	for tag, k := range got {
		if k != 1 {
			t.Fatalf("tag %d delivered %d times", tag, k)
		}
	}
	st := m.Stats()
	if st.Sent != uint64(n*n) || st.Delivered != uint64(n*n) {
		t.Fatalf("stats %+v, want %d sent and delivered", st, n*n)
	}
	if st.Hops < st.Sent {
		t.Fatalf("hops %d < sent %d: multi-hop routes must traverse >= 1 switch", st.Hops, st.Sent)
	}
}

func TestTreeRoutingAllPairs(t *testing.T) {
	for _, tc := range []struct{ nodes, fanIn int }{
		{1, 2}, {2, 2}, {5, 2}, {8, 2}, {9, 3}, {16, 4}, {13, 4},
	} {
		allPairs(t, treeConfig(tc.nodes, tc.fanIn))
	}
}

func TestMeshRoutingAllPairs(t *testing.T) {
	for _, nodes := range []int{1, 2, 6, 9, 16} {
		allPairs(t, meshConfig(nodes))
	}
}

// addPkt returns a src->dst scatter-add of v to address addr, the traffic
// in-switch combining merges.
func addPkt(src, dst int, addr mem.Addr, v int64) Packet {
	return Packet{Src: int32(src), Dst: int32(dst), Req: mem.Request{Kind: mem.AddI64, Addr: addr, Val: mem.I64(v)}}
}

func TestInSwitchCombining(t *testing.T) {
	cfg := treeConfig(4, 2)
	cfg.Combine = true
	m := NewMultiHop(cfg)
	// Four same-key packets to node 0, one per node, injected the same
	// cycle: nodes {0,1} share node 0's leaf and merge there (their frame
	// turns down without touching the root), nodes {2,3} merge at the other
	// leaf and their survivor alone crosses the root. Two deliveries, two
	// merges, one root crossing.
	for src := 0; src < 4; src++ {
		if !m.Send(addPkt(src, 0, 7, int64(src+1))) {
			t.Fatalf("send from %d refused", src)
		}
	}
	var got []int64
	now := uint64(0)
	mhPump(m, &now, 200, func(d int, p Packet) {
		if d != 0 || p.Req.Addr != 7 {
			t.Fatalf("delivered %+v at %d", p, d)
		}
		got = append(got, mem.AsI64(p.Req.Val))
	})
	if len(got) != 2 || got[0]+got[1] != 1+2+3+4 {
		t.Fatalf("got %v, want two merged packets summing to 10", got)
	}
	st := m.Stats()
	if st.Combined != 2 || m.Combined() != 2 {
		t.Fatalf("combined %d (Combined() %d), want 2", st.Combined, m.Combined())
	}
	if st.RootPkts != 1 {
		t.Fatalf("root packets %d, want 1 (leaf merges halve the upward traffic)", st.RootPkts)
	}
}

// TestCombineWindowEvicts pins the window semantics: a packet that has
// drained out of staging into the switch proper is no longer mergeable.
func TestCombineWindowEvicts(t *testing.T) {
	cfg := treeConfig(2, 2)
	cfg.Combine = true
	m := NewMultiHop(cfg)
	now := uint64(0)
	m.Send(addPkt(0, 1, 3, 1))
	m.Tick(now) // staging drains into the crossbar: the window is empty
	now++
	m.Send(addPkt(0, 1, 3, 2))
	var got []Packet
	mhPump(m, &now, 100, func(d int, p Packet) { got = append(got, p) })
	if len(got) != 2 {
		t.Fatalf("delivered %v, want 2 separate packets (no merge after evict)", got)
	}
	if st := m.Stats(); st.Combined != 0 {
		t.Fatalf("combined %d, want 0", st.Combined)
	}
}

// TestDistinctKeysDoNotCombine: packets staged together in one switch merge
// only on the same destination, address and kind, and only as scatter-adds
// carrying no link sequence number or acknowledgment.
func TestDistinctKeysDoNotCombine(t *testing.T) {
	cfg := treeConfig(4, 2)
	cfg.Combine = true
	m := NewMultiHop(cfg)
	fetch := addPkt(1, 0, 1, 1)
	fetch.Req.Kind = mem.FetchAddI64
	sequenced := addPkt(1, 0, 1, 1)
	sequenced.Seq = 9
	ack := addPkt(1, 0, 1, 1)
	ack.Ack = true
	sent := []Packet{
		sequenced, // staged first, so the plain add below must not merge into them
		ack,
		fetch,
		addPkt(1, 0, 1, 1),
		addPkt(1, 0, 2, 1), // another address
		addPkt(1, 3, 1, 1), // another destination
		{Src: 1, Dst: 0, Req: mem.Request{Kind: mem.AddF64, Addr: 1}}, // another kind
	}
	for _, p := range sent {
		if !m.Send(p) {
			t.Fatalf("send of %+v refused", p)
		}
	}
	var got []Packet
	now := uint64(0)
	mhPump(m, &now, 200, func(d int, p Packet) { got = append(got, p) })
	if len(got) != len(sent) {
		t.Fatalf("delivered %d packets, want %d", len(got), len(sent))
	}
	if st := m.Stats(); st.Combined != 0 {
		t.Fatalf("combined %d, want 0", st.Combined)
	}
}

// TestPerHopRetransmit runs tagged traffic through a lossy, duplicating tree
// and checks exactly-once delivery via per-hop seq/ack/retransmit/dedup.
func TestPerHopRetransmit(t *testing.T) {
	for _, kind := range []GraphKind{TreeGraph, MeshGraph} {
		cfg := treeConfig(8, 2)
		if kind == MeshGraph {
			cfg = meshConfig(8)
		}
		m := NewMultiHop(cfg)
		fc := fault.Config{Seed: 42, NetDropRate: 0.2, NetDupRate: 0.1}.WithDefaults()
		m.SetFaults(fc, "test")
		const pkts = 100
		got := make(map[int]int)
		now := uint64(0)
		recv := func(d int, q Packet) { got[tag(q)]++ }
		for k := 0; k < pkts; k++ {
			for !m.Send(tagged(k%8, (k*5)%8, k)) {
				mhPump(m, &now, 1, recv)
			}
		}
		for c := 0; c < 1_000_000 && m.Busy(); c++ {
			mhPump(m, &now, 1, recv)
		}
		if m.Busy() {
			t.Fatalf("%v: fabric still busy", kind)
		}
		if len(got) != pkts {
			t.Fatalf("%v: delivered %d of %d", kind, len(got), pkts)
		}
		for tag, k := range got {
			if k != 1 {
				t.Fatalf("%v: tag %d delivered %d times", kind, tag, k)
			}
		}
		st := m.Stats()
		if st.Dropped == 0 || st.HopRetrans == 0 {
			t.Fatalf("%v: stats %+v, want drops and retransmissions", kind, st)
		}
		if st.HopDups == 0 {
			t.Fatalf("%v: stats %+v, want duplicate frames discarded", kind, st)
		}
	}
}

// TestCombiningUnderFaults: merged packets survive drops via retransmission
// — the delivered value sum equals the injected sum — and every request's
// op ends exactly once: at delivery for survivors, at the injection switch
// for requests absorbed by Send (the sender's to end), and inside the
// fabric for requests absorbed in transit.
func TestCombiningUnderFaults(t *testing.T) {
	cfg := treeConfig(8, 2)
	cfg.Combine = true
	m := NewMultiHop(cfg)
	m.SetFaults(fault.Config{Seed: 7, NetDropRate: 0.15, NetDupRate: 0.05}.WithDefaults(), "test")
	tr := span.New(1)
	m.SetSpanTracer(tr)
	var want, sum int64
	delivered, atInjection := 0, 0
	now := uint64(0)
	drain := func() {
		mhPump(m, &now, 1, func(d int, p Packet) {
			if d != 3 {
				t.Fatalf("delivered at %d", d)
			}
			delivered++
			sum += mem.AsI64(p.Req.Val)
			tr.OpEnd(p.Req.Node, p.Req.ID, now)
		})
	}
	for k := 0; k < 64; k++ {
		v := int64(k%9 + 1)
		p := addPkt(k%8, 3, 5, v)
		p.Req.ID, p.Req.Node = uint64(k), k%8
		tr.OpBegin(p.Req.Node, p.Req.ID, p.Req.Kind, p.Req.Addr, now)
		merged := m.Combined()
		for !m.Send(p) {
			drain()
		}
		if m.Combined() != merged {
			atInjection++
			tr.OpEnd(p.Req.Node, p.Req.ID, now)
		}
		want += v
		if k%2 == 1 {
			drain() // let traffic meet in the upper switches too
		}
	}
	for c := 0; c < 1_000_000 && m.Busy(); c++ {
		drain()
	}
	if sum != want {
		t.Fatalf("delivered sum %d, want %d", sum, want)
	}
	if inTransit := 64 - delivered - atInjection; inTransit == 0 {
		t.Fatalf("no request absorbed in transit (%d delivered, %d absorbed at injection)", delivered, atInjection)
	}
	if ended, live := len(tr.Ops()), tr.Live(); ended != 64 || live != 0 {
		t.Fatalf("%d ops ended, %d live; want all 64 ended", ended, live)
	}
}

func TestMultiHopNextEventContract(t *testing.T) {
	m := NewMultiHop(treeConfig(8, 2))
	if ev := m.NextEvent(5); ev != sim.Never {
		t.Fatalf("idle NextEvent = %d, want Never", ev)
	}
	m.Send(tagged(0, 7, 1))
	if ev := m.NextEvent(5); ev != 5 {
		t.Fatalf("staged NextEvent = %d, want now", ev)
	}
	now := uint64(5)
	m.Tick(now) // staging drains; the frame is now inside a switch
	now++
	ev := m.NextEvent(now)
	if ev == sim.Never || ev < now {
		t.Fatalf("in-flight NextEvent = %d, want a finite cycle >= %d", ev, now)
	}
	if !m.Busy() {
		t.Fatal("fabric with in-flight traffic must report busy")
	}
	// Fast-forward legality: jumping to ev and ticking from there still
	// delivers.
	for c, now := 0, ev; c < 200; c++ {
		m.Tick(now)
		if _, ok := m.Recv(7); ok {
			return
		}
		now++
	}
	t.Fatal("packet never delivered after fast-forward")
}

// TestTreeRootCounting: with combining off, every cross-leaf packet is
// counted at the root, and intra-leaf packets are not.
func TestTreeRootCounting(t *testing.T) {
	m := NewMultiHop(treeConfig(8, 4))
	now := uint64(0)
	m.Send(tagged(0, 1, 1)) // stays under leaf 0
	mhPump(m, &now, 100, nil)
	if st := m.Stats(); st.RootPkts != 0 {
		t.Fatalf("intra-leaf traffic counted at root: %+v", st)
	}
	m.Send(tagged(0, 7, 2)) // must cross the root
	mhPump(m, &now, 100, nil)
	if st := m.Stats(); st.RootPkts != 1 {
		t.Fatalf("cross-leaf traffic not counted at root: %+v", st)
	}
}

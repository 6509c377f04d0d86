package network

import (
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/sim"
)

// heldCount counts the packets in a crossbar's opened ports the slow way.
func heldCount(x *Crossbar) int {
	n := 0
	for i := range x.inputs {
		if x.inputs[i] != nil {
			n += x.inputs[i].Len()
		}
		if x.wires[i] != nil {
			n += x.wires[i].Len()
		}
		if x.outputs[i] != nil {
			n += x.outputs[i].Len()
		}
	}
	return n
}

// xorshift returns a deterministic traffic generator over [0, n).
func xorshift(seed uint64) func(n int) int {
	return func(n int) int {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return int(seed % uint64(n))
	}
}

// TestCrossbarHeldCount: under drop and dup faults and saturating traffic,
// the crossbar's held-packet count equals the packets in its queues and
// wires every cycle, and so does its slab's live count (one slot per packet,
// a duplicate in a slot of its own); Busy agrees with them, the arrival set
// holds exactly the outputs with a packet, and all return to zero, every
// slot free, once the traffic drains.
func TestCrossbarHeldCount(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.OutputQDepth = 2
	cfg.WireDepth = 3
	x := New(cfg)
	x.SetFaults(fault.Config{Seed: 3, NetDropRate: 0.1, NetDupRate: 0.1}.WithDefaults(), "held")
	next := xorshift(777)
	check := func(cycle uint64) {
		t.Helper()
		if want := heldCount(x); x.held != want || x.slab.live() != want || x.Busy() != (want > 0) {
			t.Fatalf("cycle %d: held %d, slab live %d, busy %v; ports hold %d", cycle, x.held, x.slab.live(), x.Busy(), want)
		}
		checkArrivals(t, x.Arrivals(), cycle, func(o int) bool { return x.Peek(o) != nil }, cfg.Nodes)
	}
	cycle := uint64(0)
	for ; cycle < 3000; cycle++ {
		if cycle < 2000 {
			for k := 0; k < 4; k++ {
				dst := next(cfg.Nodes)
				if k%2 == 0 {
					dst = 0 // hot spot
				}
				x.Send(tagged(next(cfg.Nodes), dst, int(cycle)))
				check(cycle)
			}
		}
		x.Tick(cycle)
		check(cycle)
		for d := 0; d < cfg.Nodes; d++ {
			if d%2 == 0 || cycle >= 2000 {
				x.Recv(d)
			}
		}
		check(cycle)
	}
	if x.held != 0 || x.Busy() || x.slab.live() != 0 {
		t.Fatalf("after the drain: held %d, busy %v, %d slab slots live", x.held, x.Busy(), x.slab.live())
	}
	if st := x.Stats(); st.Dropped == 0 || st.Duped == 0 {
		t.Fatalf("faults never fired: %+v", st)
	}
}

// checkArrivals fails unless the arrival set of an n-endpoint fabric has
// exactly the bits of the endpoints waiting reports.
func checkArrivals(t *testing.T, arr []uint64, cycle uint64, waiting func(dst int) bool, n int) {
	t.Helper()
	if len(arr) != (n+63)/64 {
		t.Fatalf("cycle %d: arrival set of %d words for %d endpoints", cycle, len(arr), n)
	}
	for d := 0; d < len(arr)*64; d++ {
		set := arr[d>>6]&(1<<(d&63)) != 0
		if set != (d < n && waiting(d)) {
			t.Fatalf("cycle %d endpoint %d: arrival bit %v, packet waiting %v", cycle, d, set, d < n && waiting(d))
		}
	}
}

// checkHeld fails unless every switch's crossbar held count and staged and
// unacked frame counts, and the packets waiting at the endpoints, match the
// queues they summarize, the slab's live count is their sum (retransmission
// buffers keep their copies outside it), the arrival set marks exactly the
// endpoints with a waiting packet, and Busy agrees with them. Called between
// Ticks, it also checks the stepping schedule: exactly the holding switches
// are scheduled to run or asleep, the counts and run set agree with their
// states, and the wake calendar files exactly the sleeping switches with a
// timed wake, each at that cycle.
func checkHeld(t *testing.T, m *MultiHop, cycle uint64) {
	t.Helper()
	checkSchedule(t, m, cycle)
	checkArrivals(t, m.Arrivals(), cycle, func(d int) bool { return m.Peek(d) != nil }, m.cfg.Nodes)
	busy, live := false, 0
	for si, s := range m.sws {
		staged, unacked := 0, 0
		for p, w := range s.stage {
			if w != nil {
				staged += w.Len()
			}
			unacked += s.retx[p].Len()
		}
		held := heldCount(s.xb)
		if s.xb.held != held || s.staged != staged || s.unacked != unacked {
			t.Fatalf("cycle %d switch %d: counted held/staged/unacked %d/%d/%d, queues hold %d/%d/%d",
				cycle, si, s.xb.held, s.staged, s.unacked, held, staged, unacked)
		}
		busy = busy || held+staged+unacked > 0
		live += held + staged
	}
	waiting := 0
	for _, q := range m.outq {
		waiting += q.Len()
	}
	if m.waiting != waiting {
		t.Fatalf("cycle %d: waiting %d, delivery queues hold %d", cycle, m.waiting, waiting)
	}
	if live += waiting; m.slab.live() != live {
		t.Fatalf("cycle %d: slab holds %d live packets, the queues %d", cycle, m.slab.live(), live)
	}
	if busy = busy || waiting > 0; m.Busy() != busy {
		t.Fatalf("cycle %d: Busy %v, queues say %v", cycle, m.Busy(), busy)
	}
}

// TestMultiHopHeldCounts: the same invariant per switch of a tree and a
// mesh, fault-free and under per-hop reliability with drops and duplicates
// — crossbar held counts, staged and unacked frame counts, packets waiting
// at the endpoints and the slab's live count all match the queues they
// summarize every cycle, and all return to zero after the drain, with
// every slab slot free.
func TestMultiHopHeldCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    MultiHopConfig
		faults bool
	}{
		{"tree", treeConfig(16, 4), true},
		{"mesh", meshConfig(16), true},
		{"tree-faultfree", treeConfig(16, 4), false},
		{"mesh-faultfree", meshConfig(16), false},
	} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			m := NewMultiHop(cfg)
			if tc.faults {
				m.SetFaults(fault.Config{Seed: 11, NetDropRate: 0.1, NetDupRate: 0.05}.WithDefaults(), "held")
			}
			next := xorshift(4242)
			cycle := uint64(0)
			for ; cycle < 6000; cycle++ {
				if cycle < 1500 {
					for k := 0; k < 3; k++ {
						m.Send(tagged(next(cfg.Nodes), next(cfg.Nodes), int(cycle)))
					}
					checkHeld(t, m, cycle)
				}
				m.Tick(cycle)
				checkHeld(t, m, cycle)
				for d := 0; d < cfg.Nodes; d++ {
					if d%3 != 0 || cycle >= 1500 {
						m.Recv(d)
					}
				}
				checkHeld(t, m, cycle)
			}
			if m.Busy() || m.slab.live() != 0 {
				t.Fatalf("after the drain: busy %v, %d slab slots live", m.Busy(), m.slab.live())
			}
			if st := m.Stats(); tc.faults && (st.Dropped == 0 || st.Duped == 0 || st.HopRetrans == 0) {
				t.Fatalf("faults never exercised recovery: %+v", st)
			}
		})
	}
}

// checkSchedule checks the stepping schedule between Ticks (see checkHeld).
func checkSchedule(t *testing.T, m *MultiHop, cycle uint64) {
	t.Helper()
	holding, asleep := 0, 0
	for si, s := range m.sws {
		run := m.next[si>>6]&(1<<(si&63)) != 0
		if m.cur[si>>6]&(1<<(si&63)) != 0 {
			t.Fatalf("cycle %d: switch %d left in the Phase C set", cycle, si)
		}
		if s.idle() != (s.state == swIdle) || run != (s.state == swRun) {
			t.Fatalf("cycle %d switch %d: state %d, idle %v, scheduled %v", cycle, si, s.state, s.idle(), run)
		}
		// A sleeping switch's wake time cannot change while it sleeps, so
		// recomputing it must find the cycle it is filed at, or Never for
		// one waiting on a neighbour, which is not filed.
		at := sim.Never
		if s.state == swSleep {
			at = m.wakeTime(s, m.ticked)
		}
		due, filed := m.sleepers.Due(si)
		if filed != (at != sim.Never) || filed && due != at {
			t.Fatalf("cycle %d switch %d: state %d, wake %d, filed %v at %d", cycle, si, s.state, at, filed, due)
		}
		if s.state == swSleep && !s.slept {
			t.Fatalf("cycle %d switch %d: asleep without a stall credit", cycle, si)
		}
		if s.state != swIdle {
			holding++
		}
		if s.state == swSleep {
			asleep++
		}
	}
	if m.holding != holding || m.asleep != asleep {
		t.Fatalf("cycle %d: holding %d asleep %d; states say %d and %d",
			cycle, m.holding, m.asleep, holding, asleep)
	}
}

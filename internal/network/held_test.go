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
// wires every cycle, Busy agrees with it, and both return to zero once the
// traffic drains.
func TestCrossbarHeldCount(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.OutputQDepth = 2
	cfg.WireDepth = 3
	x := New(cfg)
	x.SetFaults(fault.Config{Seed: 3, NetDropRate: 0.1, NetDupRate: 0.1}.WithDefaults(), "held")
	next := xorshift(777)
	check := func(cycle uint64) {
		t.Helper()
		if want := heldCount(x); x.held != want || x.Busy() != (want > 0) {
			t.Fatalf("cycle %d: held %d, busy %v; ports hold %d", cycle, x.held, x.Busy(), want)
		}
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
	if x.held != 0 || x.Busy() {
		t.Fatalf("after the drain: held %d, busy %v", x.held, x.Busy())
	}
	if st := x.Stats(); st.Dropped == 0 || st.Duped == 0 {
		t.Fatalf("faults never fired: %+v", st)
	}
}

// checkHeld fails unless every switch's crossbar held count and staged and
// unacked frame counts, and the packets waiting at the endpoints, match the
// queues they summarize, and Busy agrees with them. Called between Ticks, it
// also checks the stepping schedule: exactly the holding switches are
// scheduled to run or asleep, and the counts, run set and wake heap agree
// with their states.
func checkHeld(t *testing.T, m *MultiHop, cycle uint64) {
	t.Helper()
	checkSchedule(t, m, cycle)
	busy := false
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
	}
	waiting := 0
	for _, q := range m.outq {
		waiting += q.Len()
	}
	if m.waiting != waiting {
		t.Fatalf("cycle %d: waiting %d, delivery queues hold %d", cycle, m.waiting, waiting)
	}
	if busy = busy || waiting > 0; m.Busy() != busy {
		t.Fatalf("cycle %d: Busy %v, queues say %v", cycle, m.Busy(), busy)
	}
}

// TestMultiHopHeldCounts: the same invariant per switch of a tree and a
// mesh under per-hop reliability — crossbar held counts, staged and unacked
// frame counts, and packets waiting at the endpoints all match the queues
// they summarize every cycle, and all return to zero after the drain.
func TestMultiHopHeldCounts(t *testing.T) {
	for name, cfg := range map[string]MultiHopConfig{"tree": treeConfig(16, 4), "mesh": meshConfig(16)} {
		t.Run(name, func(t *testing.T) {
			m := NewMultiHop(cfg)
			m.SetFaults(fault.Config{Seed: 11, NetDropRate: 0.1, NetDupRate: 0.05}.WithDefaults(), "held")
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
			if m.Busy() {
				t.Fatal("fabric still busy after the drain")
			}
			if st := m.Stats(); st.Dropped == 0 || st.Duped == 0 || st.HopRetrans == 0 {
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
		timed := s.state == swSleep && s.wakeAt != sim.Never
		if (s.heapAt >= 0) != timed || timed && m.sleepers[s.heapAt] != int32(si) {
			t.Fatalf("cycle %d switch %d: state %d wake %d at heap slot %d", cycle, si, s.state, s.wakeAt, s.heapAt)
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
	if m.holding != holding || m.asleep != asleep || len(m.sleepers) > asleep {
		t.Fatalf("cycle %d: holding %d asleep %d heap %d; states say %d and %d",
			cycle, m.holding, m.asleep, len(m.sleepers), holding, asleep)
	}
	for i := 1; i < len(m.sleepers); i++ {
		if m.sws[m.sleepers[(i-1)/2]].wakeAt > m.sws[m.sleepers[i]].wakeAt {
			t.Fatalf("cycle %d: wake heap out of order at slot %d", cycle, i)
		}
	}
}

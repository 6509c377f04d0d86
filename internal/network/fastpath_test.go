package network

import (
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/stats"
)

// TestFastPathEquivalence drives identical traffic — including injected
// faults and saturating bursts — through a WordsPerCyc==1 crossbar on the
// O(ports) fast arbitration path and a twin forced onto the general loop,
// and demands bit-identical deliveries, stats, and arbiter behaviour every
// cycle. The fast path is what makes the kilo-port flat crossbar of the
// scale-out figure simulable, so its equivalence is load-bearing.
func TestFastPathEquivalence(t *testing.T) {
	for _, faults := range []bool{false, true} {
		cfg := DefaultConfig(9)
		cfg.OutputQDepth = 2 // force output back-pressure and full wires
		cfg.WireDepth = 3
		fast := New(cfg)
		slow := New(cfg)
		slow.DisableFastPath()
		if faults {
			fc := fault.Config{Seed: 99, NetDropRate: 0.1, NetDupRate: 0.1}.WithDefaults()
			fast.SetFaults(fc, "twin")
			slow.SetFaults(fc, "twin")
		}
		// xorshift traffic: bursts aimed at a hot output plus a uniform tail.
		rng := uint64(12345)
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		for cycle := uint64(0); cycle < 2000; cycle++ {
			for k := 0; k < 4; k++ {
				src := next(cfg.Nodes)
				dst := next(cfg.Nodes)
				if k%2 == 0 {
					dst = 0 // hot spot
				}
				p := tagged(src, dst, int(cycle)<<8|k)
				okF := fast.Send(p)
				okS := slow.Send(p)
				if okF != okS {
					t.Fatalf("faults=%v cycle %d: send accept mismatch %v vs %v", faults, cycle, okF, okS)
				}
			}
			fast.Tick(cycle)
			slow.Tick(cycle)
			// Drain a bounded amount per cycle so queues stay contended.
			for d := 0; d < cfg.Nodes; d++ {
				for k := 0; k < 1+d%2; k++ {
					pF, okF := fast.Recv(d)
					pS, okS := slow.Recv(d)
					if okF != okS || pF != pS {
						t.Fatalf("faults=%v cycle %d node %d: delivery mismatch (%v,%v) vs (%v,%v)",
							faults, cycle, d, pF, okF, pS, okS)
					}
				}
			}
			if fast.Stats() != slow.Stats() {
				t.Fatalf("faults=%v cycle %d: stats diverged\nfast %+v\nslow %+v",
					faults, cycle, fast.Stats(), slow.Stats())
			}
		}
		fastSnap := stats.NewSnapshot(stats.Append(nil, "net", CrossbarMetrics, fast))
		slowSnap := stats.NewSnapshot(stats.Append(nil, "net", CrossbarMetrics, slow))
		if f, s := fastSnap.Format(""), slowSnap.Format(""); f != s {
			t.Fatalf("faults=%v: counter snapshots diverged\nfast:\n%s\nslow:\n%s", faults, f, s)
		}
	}
}

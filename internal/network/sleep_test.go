package network

import (
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
)

// TestChaosSleepingFabricMatchesPerSwitch drives the same traffic in
// lockstep through a fast-forward MultiHop, whose blocked switches sleep and
// which is ticked only when it reports work due, and a per-switch one, which
// visits every holding switch every cycle. Every endpoint bursts hot
// scatter-adds at a few owners, so that combining trees and meshes saturate
// and then drain switch by switch in the quiet gaps, fault-free and under
// per-hop drop and dup faults, while endpoints stop reading their
// deliveries for stretches. Every cycle both fabrics must accept the same
// sends, deliver the same packets, read the same Stats (stalls included)
// and keep their held, staged, unacked and scheduling counts exact.
func TestChaosSleepingFabricMatchesPerSwitch(t *testing.T) {
	mesh := meshConfig(64)
	mesh.Combine = true
	tree := treeConfig(64, 4)
	tree.Combine = true
	for _, tc := range []struct {
		name   string
		cfg    MultiHopConfig
		faults bool
	}{
		{"tree+comb", tree, false},
		{"mesh+comb", mesh, false},
		{"tree+comb-faults", tree, true},
		{"mesh+comb-faults", mesh, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			fast := NewMultiHop(cfg)
			cfg.LegacyStepping = true
			ref := NewMultiHop(cfg)
			if tc.faults {
				fc := fault.Config{Seed: 5, NetDropRate: 0.02, NetDupRate: 0.02}.WithDefaults()
				fast.SetFaults(fc, "sleep")
				ref.SetFaults(fc, "sleep")
			}
			next := xorshift(991)
			slept := 0
			for cycle := uint64(0); cycle < 10000; cycle++ {
				if cycle < 6000 && cycle%500 < 60 {
					for src := 0; src < cfg.Nodes; src++ {
						p := addPkt(src, next(8), mem.Addr(next(64)), int64(cycle))
						p.Req.ID = cycle<<8 | uint64(src)
						if okF, okR := fast.Send(p), ref.Send(p); okF != okR {
							t.Fatalf("cycle %d: send %+v accepted %v by the sleeping fabric, %v by the reference", cycle, p, okF, okR)
						}
					}
				}
				if fast.NextEvent(cycle) <= cycle {
					fast.Tick(cycle)
				}
				ref.Tick(cycle)
				slept = max(slept, fast.asleep)
				for d := 0; d < cfg.Nodes; d++ {
					// Endpoints go deaf in staggered stretches of 300 cycles.
					if (cycle/300+uint64(d))%4 == 0 && cycle < 6500 {
						continue
					}
					for k := 0; k < 2; k++ {
						pF, okF := fast.Recv(d)
						pR, okR := ref.Recv(d)
						if okF != okR || pF != pR {
							t.Fatalf("cycle %d endpoint %d: delivered (%+v, %v), reference (%+v, %v)", cycle, d, pF, okF, pR, okR)
						}
					}
				}
				if sF, sR := fast.Stats(), ref.Stats(); sF != sR {
					t.Fatalf("cycle %d: stats %+v, reference %+v", cycle, sF, sR)
				}
				checkHeld(t, fast, cycle)
				checkHeld(t, ref, cycle)
			}
			if fast.Busy() || ref.Busy() {
				t.Fatal("fabric still busy after the drain")
			}
			st := fast.Stats()
			if st.Combined == 0 || st.Stalled == 0 {
				t.Fatalf("traffic never combined or stalled: %+v", st)
			}
			if tc.faults && (st.Dropped == 0 || st.Duped == 0 || st.HopRetrans == 0) {
				t.Fatalf("faults never exercised recovery: %+v", st)
			}
			if slept == 0 {
				t.Fatal("no switch ever slept")
			}
		})
	}
}

package multinode

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
)

// chaosConfig returns a small system with every fault class cranked high
// enough that a short trace exercises drops, duplications, retries, stalls,
// and scrubs.
func chaosConfig(nodes, bw int, span mem.Addr, combining bool) Config {
	cfg := smallConfig(nodes, bw, span, combining)
	fc := fault.DefaultChaos()
	fc.NetDropRate = 0.05
	fc.NetDupRate = 0.02
	fc.DRAMStallRate = 0.01
	fc.DRAMWindowEvery = 5_000
	fc.DRAMWindowSpan = 200
	fc.CSCorruptRate = 0.01
	fc.FUErrorRate = 0.01
	cfg.Faults = fc
	return cfg
}

// TestChaosDirectExact: with every injector firing, direct-mode reductions
// stay bit-exact — drops are retried, duplicates deduplicated, stalls and
// scrubs merely cost cycles.
func TestChaosDirectExact(t *testing.T) {
	const rng = 1024
	for _, nodes := range []int{2, 4, 8} {
		span := mem.Addr((rng+nodes-1)/nodes+mem.LineWords-1) &^ (mem.LineWords - 1)
		s := New(chaosConfig(nodes, 8, span, false), mem.AddI64)
		refs := uniformTrace(4096, rng, uint64(7+nodes))
		res := s.RunTrace(refs)
		verifyHistogram(t, s, refs, rng)
		if res.NetStats.Dropped == 0 {
			t.Fatalf("%d nodes: chaos run dropped no packets", nodes)
		}
		if res.Retransmits == 0 {
			t.Fatalf("%d nodes: drops occurred but nothing retransmitted", nodes)
		}
		if res.NetStats.Duped != 0 && res.DupsDropped == 0 {
			t.Fatalf("%d nodes: duplicates crossed but none were deduplicated", nodes)
		}
	}
}

// TestChaosCombiningExact: the same guarantee through the combining path,
// including sum-back frames and partial-line parity scrubs.
func TestChaosCombiningExact(t *testing.T) {
	const rng = 1024
	for _, nodes := range []int{2, 4} {
		span := mem.Addr((rng+nodes-1)/nodes+mem.LineWords-1) &^ (mem.LineWords - 1)
		s := New(chaosConfig(nodes, 1, span, true), mem.AddI64)
		refs := uniformTrace(4096, rng, uint64(11+nodes))
		res := s.RunTrace(refs)
		verifyHistogram(t, s, refs, rng)
		if res.SumBacks == 0 {
			t.Fatalf("%d nodes: combining mode performed no sum-backs", nodes)
		}
	}
}

// TestChaosHierarchicalExact: hop-by-hop reliability under the hypercube
// sum-back tree.
func TestChaosHierarchicalExact(t *testing.T) {
	const rng = 1024
	cfg := chaosConfig(4, 1, mem.Addr((rng/4+mem.LineWords-1))&^(mem.LineWords-1), true)
	cfg.Topology = Hypercube()
	s := New(cfg, mem.AddI64)
	refs := uniformTrace(4096, rng, 23)
	s.RunTrace(refs)
	verifyHistogram(t, s, refs, rng)
}

// TestChaosDeterministic: the same seed yields byte-identical fault
// schedules, counters, and results.
func TestChaosDeterministic(t *testing.T) {
	const rng = 1024
	run := func() (Result, []byte) {
		span := mem.Addr((rng/2 + mem.LineWords - 1)) &^ (mem.LineWords - 1)
		s := New(chaosConfig(2, 8, span, false), mem.AddI64)
		res := s.RunTrace(uniformTrace(2048, rng, 5))
		var snap []byte
		for _, e := range s.StatsSnapshot().Entries {
			snap = append(snap, []byte(e.Key)...)
			for sh := 0; sh < 64; sh += 8 {
				snap = append(snap, byte(e.Val>>sh))
			}
		}
		return res, snap
	}
	r1, s1 := run()
	r2, s2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("results diverge:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("counter snapshots diverge across identical runs")
	}
}

// TestChaosFFMatchesLegacy: fast-forward and per-cycle stepping must agree
// cycle-for-cycle and counter-for-counter with every injector active.
func TestChaosFFMatchesLegacy(t *testing.T) {
	const rng = 1024
	for _, combining := range []bool{false, true} {
		run := func(legacy bool) (Result, interface{}) {
			span := mem.Addr((rng/2 + mem.LineWords - 1)) &^ (mem.LineWords - 1)
			cfg := chaosConfig(2, 1, span, combining)
			cfg.LegacyStepping = legacy
			s := New(cfg, mem.AddI64)
			res := s.RunTrace(uniformTrace(2048, rng, 9))
			return res, s.StatsSnapshot()
		}
		fr, fs := run(false)
		lr, ls := run(true)
		if !reflect.DeepEqual(fr, lr) {
			t.Fatalf("combining=%v: FF result %+v != legacy %+v", combining, fr, lr)
		}
		if !reflect.DeepEqual(fs, ls) {
			t.Fatalf("combining=%v: FF counters diverge from legacy", combining)
		}
	}
}

// TestDegradeFallsBackToDirect: once a node's combining banks scrub enough
// parity faults, it flushes and routes remote references directly — and the
// reduction stays exact through the transition.
func TestDegradeFallsBackToDirect(t *testing.T) {
	const rng = 1024
	span := mem.Addr((rng/2 + mem.LineWords - 1)) &^ (mem.LineWords - 1)
	cfg := chaosConfig(2, 8, span, true)
	cfg.Faults.CSCorruptRate = 0.2 // scrub storm
	cfg.Faults.DegradeThreshold = 8
	s := New(cfg, mem.AddI64)
	refs := uniformTrace(4096, rng, 31)
	res := s.RunTrace(refs)
	if res.Degraded == 0 {
		t.Fatal("no node degraded despite a scrub storm over the threshold")
	}
	verifyHistogram(t, s, refs, rng)
}

// TestZeroFaultIdentical: a zero fault config must not perturb the run at
// all — same cycles, same counters as a config-free build.
func TestZeroFaultIdentical(t *testing.T) {
	const rng = 1024
	span := mem.Addr((rng/2 + mem.LineWords - 1)) &^ (mem.LineWords - 1)
	base := New(smallConfig(2, 1, span, true), mem.AddI64)
	refs := uniformTrace(2048, rng, 13)
	br := base.RunTrace(refs)

	cfg := smallConfig(2, 1, span, true)
	cfg.Faults = fault.Config{} // explicit zero
	zr := New(cfg, mem.AddI64).RunTrace(refs)
	if !reflect.DeepEqual(br, zr) {
		t.Fatalf("zero fault config perturbed the run:\n%+v\n%+v", br, zr)
	}
}

// TestGiveUp: with every packet dropped, each link layer — the flat
// crossbar's end-to-end link and the multi-hop fabric's per-hop link —
// resends on its capped backoff schedule and then gives up, panicking with
// the unacked packet's sequence number and endpoints. RetryTimeout 4 with
// the backoff capped at 2^1 puts the resend deadlines at cycles 4, 12 and
// 20, and MaxRetries 3 gives up at the fourth deadline, cycle 28; uncapped,
// the third resend would wait until 28 and the give-up until 60.
func TestGiveUp(t *testing.T) {
	for name, topo := range map[string]Topology{"end-to-end": Flat(), "per-hop": Tree(2, false)} {
		for _, legacy := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/legacy=%v", name, legacy), func(t *testing.T) {
				cfg := topoConfig(2, 1, 64, topo)
				cfg.LegacyStepping = legacy
				cfg.Faults = fault.Config{Seed: 1, NetDropRate: 1, RetryTimeout: 4, RetryBackoffCap: 1, MaxRetries: 3}
				s := New(cfg, mem.AddI64)
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, "packet seq=1 0->1 unacked after 4 attempts") {
						t.Fatalf("panic %q, want the unacked packet named", msg)
					}
					if s.now != 28 {
						t.Fatalf("gave up at cycle %d, want 28", s.now)
					}
				}()
				s.RunTrace([]Ref{{Addr: 64, Val: mem.I64(1)}}) // node 0 -> owner 1
			})
		}
	}
}

package multinode

import (
	"fmt"
	"reflect"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
)

// topoConfig builds a small system on an explicit Topology.
func topoConfig(nodes, bw int, span mem.Addr, topo Topology) Config {
	cfg := DefaultConfig(nodes, bw, span)
	cfg.Cache.TotalLines = 256
	cfg.Topology = topo
	return cfg
}

func lineSpan(rng, nodes int) mem.Addr {
	return mem.Addr((rng+nodes-1)/nodes+mem.LineWords-1) &^ (mem.LineWords - 1)
}

// topoMatrix is the sweep the correctness tests walk: every multi-hop shape
// with combining on and off, including non-power-of-two node counts (ragged
// trees, non-square meshes) and a single-leaf tree.
func topoMatrix() map[string]Topology {
	return map[string]Topology{
		"tree2":      Tree(2, false),
		"tree2+comb": Tree(2, true),
		"tree4":      Tree(4, false),
		"tree4+comb": Tree(4, true),
		"mesh":       Mesh(false),
		"mesh+comb":  Mesh(true),
	}
}

// TestTopologyHistogramCorrect: every multi-hop topology computes the exact
// reference histogram — in-switch merging changes packet counts, never sums.
func TestTopologyHistogramCorrect(t *testing.T) {
	const rng = 1024
	for name, topo := range topoMatrix() {
		for _, nodes := range []int{2, 3, 5, 8, 9} {
			t.Run(fmt.Sprintf("%s/n%d", name, nodes), func(t *testing.T) {
				s := New(topoConfig(nodes, 1, lineSpan(rng, nodes), topo), mem.AddI64)
				refs := uniformTrace(4096, rng, uint64(41+nodes))
				res := s.RunTrace(refs)
				if res.Adds != uint64(len(refs)) {
					t.Fatalf("short replay: %+v", res)
				}
				verifyHistogram(t, s, refs, rng)
				// A graph with more than one switch must show multi-hop
				// paths; a single-switch tree degenerates to one hop each.
				multiSwitch := topo.Kind == TopoMesh && nodes > 1 ||
					topo.Kind == TopoTree && nodes > topo.FanIn
				if multiSwitch && res.NetStats.Hops <= res.NetStats.Delivered {
					t.Fatalf("multi-switch fabric took no extra hops: %+v", res.NetStats)
				}
			})
		}
	}
}

// TestTopologyCacheCombining: the paper's cache-combining + sum-back mode
// composes with a multi-hop fabric (partial lines ride the switches too).
func TestTopologyCacheCombining(t *testing.T) {
	const rng = 1024
	topo := Tree(4, true)
	topo.CombineCache = true
	for _, nodes := range []int{4, 9} {
		s := New(topoConfig(nodes, 1, lineSpan(rng, nodes), topo), mem.AddI64)
		refs := uniformTrace(4096, rng, uint64(61+nodes))
		res := s.RunTrace(refs)
		if res.SumBacks == 0 {
			t.Fatalf("%d nodes: no sum-backs in cache-combining mode", nodes)
		}
		verifyHistogram(t, s, refs, rng)
	}
}

// TestTopologyFFMatchesLegacy: fast-forward and per-cycle stepping agree
// cycle-for-cycle and counter-for-counter on every multi-hop topology.
func TestTopologyFFMatchesLegacy(t *testing.T) {
	const rng = 1024
	for name, topo := range topoMatrix() {
		t.Run(name, func(t *testing.T) {
			run := func(legacy bool) (Result, interface{}) {
				cfg := topoConfig(5, 1, lineSpan(rng, 5), topo)
				cfg.LegacyStepping = legacy
				s := New(cfg, mem.AddI64)
				res := s.RunTrace(uniformTrace(2048, rng, 17))
				return res, s.StatsSnapshot()
			}
			fr, fs := run(false)
			lr, ls := run(true)
			if fr != lr {
				t.Fatalf("FF result %+v != legacy %+v", fr, lr)
			}
			if !reflect.DeepEqual(fs, ls) {
				t.Fatal("FF counters diverge from legacy stepping")
			}
		})
	}
}

// TestTopologyChaosExact: per-hop seq/ack/retransmit recovers every injected
// drop and duplicate on multi-hop fabrics — the histogram stays bit-exact
// and the recovery shows up in the Result counters.
func TestTopologyChaosExact(t *testing.T) {
	const rng = 1024
	for name, topo := range topoMatrix() {
		t.Run(name, func(t *testing.T) {
			cfg := topoConfig(8, 1, lineSpan(rng, 8), topo)
			fc := fault.DefaultChaos()
			fc.NetDropRate = 0.05
			fc.NetDupRate = 0.02
			cfg.Faults = fc
			s := New(cfg, mem.AddI64)
			refs := uniformTrace(4096, rng, 47)
			res := s.RunTrace(refs)
			verifyHistogram(t, s, refs, rng)
			if res.NetStats.Dropped == 0 {
				t.Fatal("chaos run dropped no packets")
			}
			if res.Retransmits == 0 || res.NetStats.HopRetrans == 0 {
				t.Fatalf("drops occurred but no hop retransmitted: %+v", res)
			}
			if res.NetStats.Duped != 0 && res.DupsDropped == 0 {
				t.Fatal("duplicates crossed but none were deduplicated")
			}
		})
	}
}

// TestTopologyChaosDeterministic: the same seed yields byte-identical
// results and counters over a faulty multi-hop fabric.
func TestTopologyChaosDeterministic(t *testing.T) {
	const rng = 1024
	run := func() (Result, interface{}) {
		cfg := topoConfig(5, 1, lineSpan(rng, 5), Tree(2, true))
		cfg.Faults = fault.DefaultChaos()
		s := New(cfg, mem.AddI64)
		return s.RunTrace(uniformTrace(2048, rng, 53)), s.StatsSnapshot()
	}
	r1, s1 := run()
	r2, s2 := run()
	if r1 != r2 {
		t.Fatalf("results diverge:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("counter snapshots diverge across identical runs")
	}
}

// TestInSwitchCombiningReducesRootTraffic is the figure-level claim at unit
// scale: on hot-bank traffic, merging same-address scatter-adds in the
// switches cuts the packets crossing the tree root.
func TestInSwitchCombiningReducesRootTraffic(t *testing.T) {
	const rng = 16 // hot: every node hammers the same few bins
	nodes := 8
	// Node 0 owns everything, so all remote traffic converges through the root.
	span := mem.Addr(rng+mem.LineWords) &^ (mem.LineWords - 1)
	run := func(comb bool) Result {
		s := New(topoConfig(nodes, 1, span, Tree(2, comb)), mem.AddI64)
		refs := uniformTrace(8192, rng, 59)
		res := s.RunTrace(refs)
		verifyHistogram(t, s, refs, rng)
		return res
	}
	plain, comb := run(false), run(true)
	if comb.NetStats.Combined == 0 {
		t.Fatalf("no in-switch merges on hot traffic: %+v", comb.NetStats)
	}
	if comb.NetStats.RootPkts >= plain.NetStats.RootPkts {
		t.Fatalf("in-switch combining did not reduce root traffic: %d vs %d",
			comb.NetStats.RootPkts, plain.NetStats.RootPkts)
	}
}

// TestParseTopology covers the CLI/server name surface.
func TestParseTopology(t *testing.T) {
	for name, want := range map[string]Topology{
		"flat":      Flat(),
		"flat+comb": FlatCombining(),
		"hypercube": Hypercube(),
		"tree":      Tree(0, false),
		"tree+comb": Tree(0, true),
		"mesh":      Mesh(false),
		"mesh+comb": Mesh(true),
	} {
		got, err := ParseTopology(name, 0)
		if err != nil || got != want {
			t.Fatalf("ParseTopology(%q) = %+v, %v; want %+v", name, got, err, want)
		}
	}
	if got, err := ParseTopology("tree+comb", 8); err != nil || got.FanIn != 8 {
		t.Fatalf("fan-in not threaded: %+v, %v", got, err)
	}
	if _, err := ParseTopology("torus", 0); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

// TestTopologyConfigPanics: invalid combinations fail loudly at New.
func TestTopologyConfigPanics(t *testing.T) {
	const rng = 512
	cases := map[string]func(){
		"options without kind": func() {
			New(topoConfig(4, 1, lineSpan(rng, 4), Topology{FanIn: 4}), mem.AddI64)
		},
		"in-switch combining on flat": func() {
			New(topoConfig(4, 1, lineSpan(rng, 4), Topology{Kind: TopoFlat, CombineSwitch: true}), mem.AddI64)
		},
		"fan-in on flat": func() {
			New(topoConfig(4, 1, lineSpan(rng, 4), Topology{Kind: TopoFlat, FanIn: 4}), mem.AddI64)
		},
		"hypercube without cache combining": func() {
			New(topoConfig(4, 1, lineSpan(rng, 4), Topology{Kind: TopoHypercube}), mem.AddI64)
		},
		"hypercube non-pow2": func() {
			New(topoConfig(6, 1, lineSpan(rng, 6), Hypercube()), mem.AddI64)
		},
		"tree fan-in 1": func() {
			New(topoConfig(4, 1, lineSpan(rng, 4), Tree(1, false)), mem.AddI64)
		},
		"tree with mesh dims": func() {
			New(topoConfig(4, 1, lineSpan(rng, 4), Topology{Kind: TopoTree, MeshX: 2, MeshY: 2}), mem.AddI64)
		},
		"mesh with fan-in": func() {
			New(topoConfig(4, 1, lineSpan(rng, 4), Topology{Kind: TopoMesh, FanIn: 2}), mem.AddI64)
		},
		"mesh half dims": func() {
			New(topoConfig(4, 1, lineSpan(rng, 4), Topology{Kind: TopoMesh, MeshX: 2}), mem.AddI64)
		},
		"mesh dims mismatch": func() {
			New(topoConfig(4, 1, lineSpan(rng, 4), Topology{Kind: TopoMesh, MeshX: 3, MeshY: 3}), mem.AddI64)
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

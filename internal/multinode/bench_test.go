package multinode

import (
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
)

// BenchmarkFig13Tree1 replays one large Figure 13 style run on a fan-in-4
// tree with in-switch combining — 16 nodes so the tree has real depth,
// high network bandwidth, direct remote scatter-add. One System per
// iteration, like the experiment driver.
func BenchmarkFig13Tree1(b *testing.B) {
	const (
		nodes = 16
		rng   = 1 << 15
		adds  = 1 << 17
	)
	cfg := DefaultConfig(nodes, 8, rng/nodes)
	cfg.Topology = Tree(4, true)
	refs := uniformTrace(adds, rng, 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(cfg, mem.AddI64)
		res := s.RunTrace(refs)
		if res.Adds != adds {
			b.Fatalf("short replay: %+v", res)
		}
	}
}

// BenchmarkFig14Tree1024 replays Fig 14's hot histogram at its -scale 64
// size (4096 references over 256 bins, owned by the first 32 nodes) on 1024
// of the figure's trimmed nodes under a fan-in-4 tree with in-switch
// combining — the kilo-node path, where almost every node and switch sleeps
// on almost every cycle. One System per iteration, like the Fig 14 runner
// in internal/exp.
func BenchmarkFig14Tree1024(b *testing.B) {
	const (
		nodes = 1024
		rng   = 256
		adds  = 4096
	)
	cfg := hotConfig(nodes, lineSpan(rng, nodes), Tree(4, true))
	refs := uniformTrace(adds, rng, 0xF16_14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(cfg, mem.AddI64)
		res := s.RunTrace(refs)
		if res.Adds != adds {
			b.Fatalf("short replay: %+v", res)
		}
	}
}

// BenchmarkFig14Tree256Legacy replays Fig 14's hot histogram (4096
// references over 256 bins) on 256 of the figure's trimmed nodes under a
// fan-in-4 tree with in-switch combining, stepped per cycle under the
// default chaos faults: perfbench oracle's heaviest point at a CI-sized
// length, where every unit, bank, DRAM channel and retransmit buffer of
// every node is ticked on every cycle and most of them are idle. One System
// per iteration, like BenchmarkFig14Tree1024.
func BenchmarkFig14Tree256Legacy(b *testing.B) {
	const (
		nodes = 256
		rng   = 256
		adds  = 4096
	)
	cfg := hotConfig(nodes, lineSpan(rng, nodes), Tree(4, true))
	cfg.LegacyStepping = true
	cfg.Faults = fault.DefaultChaos()
	refs := uniformTrace(adds, rng, 0xF16_14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(cfg, mem.AddI64)
		res := s.RunTrace(refs)
		if res.Adds != adds {
			b.Fatalf("short replay: %+v", res)
		}
	}
}

// BenchmarkFig14Mesh1024 replays Fig 14's hot histogram at its -scale 16
// size (16384 references over 256 bins, owned by the first 32 nodes) on
// 1024 of the figure's trimmed nodes under a 32x32 mesh without combining —
// the fabric-bound point, where every hot packet crosses up to 62 switches
// and the hop count, not the node side, sets the cost. One System per
// iteration, like BenchmarkFig14Tree1024.
func BenchmarkFig14Mesh1024(b *testing.B) {
	const (
		nodes = 1024
		rng   = 256
		adds  = 16384
	)
	cfg := hotConfig(nodes, lineSpan(rng, nodes), Mesh(false))
	refs := uniformTrace(adds, rng, 0xF16_14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(cfg, mem.AddI64)
		res := s.RunTrace(refs)
		if res.Adds != adds {
			b.Fatalf("short replay: %+v", res)
		}
	}
}

// BenchmarkFig13FlatComb replays Fig 13's wide histogram (4096 references
// over 1M words, the -scale 16 length) on 4 Table-1 nodes (8 banks, 16 DRAM
// channels) with cache combining over the low-bandwidth crossbar — the
// wide-low-comb point, where most of a working node's units, banks and DRAM
// channels have nothing due. One System per iteration, like
// BenchmarkFig13Tree1.
func BenchmarkFig13FlatComb(b *testing.B) {
	const (
		nodes = 4
		rng   = 1 << 20
		adds  = 4096
	)
	cfg := DefaultConfig(nodes, 1, lineSpan(rng, nodes))
	cfg.Topology = FlatCombining()
	refs := uniformTrace(adds, rng, 0xF16_13+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(cfg, mem.AddI64)
		res := s.RunTrace(refs)
		if res.Adds != adds {
			b.Fatalf("short replay: %+v", res)
		}
	}
}

package multinode

import (
	"testing"
	"testing/quick"

	"scatteradd/internal/mem"
	"scatteradd/internal/workload"
)

// smallConfig shrinks caches for fast tests.
func smallConfig(nodes, bw int, span mem.Addr, combining bool) Config {
	cfg := DefaultConfig(nodes, bw, span)
	cfg.Cache.TotalLines = 256
	if combining {
		cfg.Topology = FlatCombining()
	}
	return cfg
}

// uniformTrace builds n references uniformly over [0, rangeSize).
func uniformTrace(n, rangeSize int, seed uint64) []Ref {
	idx := workload.UniformIndices(n, rangeSize, seed)
	refs := make([]Ref, n)
	for i, x := range idx {
		refs[i] = Ref{Addr: mem.Addr(x), Val: mem.I64(1)}
	}
	return refs
}

// verifyHistogram checks the final memory against the reference.
func verifyHistogram(t *testing.T, s *System, refs []Ref, rangeSize int) {
	t.Helper()
	ref := make(map[mem.Addr]int64)
	for _, r := range refs {
		ref[r.Addr] += mem.AsI64(r.Val)
	}
	addrs := make([]mem.Addr, rangeSize)
	for i := range addrs {
		addrs[i] = mem.Addr(i)
	}
	got := s.ReadResult(addrs)
	for i, a := range addrs {
		if mem.AsI64(got[i]) != ref[a] {
			t.Fatalf("addr %d = %d, want %d", a, mem.AsI64(got[i]), ref[a])
		}
	}
}

func TestSingleNodeTrace(t *testing.T) {
	const rng = 512
	s := New(smallConfig(1, 1, rng, false), mem.AddI64)
	refs := uniformTrace(4096, rng, 3)
	res := s.RunTrace(refs)
	if res.Adds != 4096 || res.Cycles == 0 {
		t.Fatalf("result: %+v", res)
	}
	verifyHistogram(t, s, refs, rng)
}

func TestMultiNodeDirectCorrect(t *testing.T) {
	const rng = 1024
	for _, nodes := range []int{2, 4, 8} {
		span := mem.Addr((rng + nodes - 1) / nodes)
		// Round the span up to a line multiple so owners align to lines.
		span = (span + mem.LineWords - 1) &^ (mem.LineWords - 1)
		s := New(smallConfig(nodes, 8, span, false), mem.AddI64)
		refs := uniformTrace(4096, rng, uint64(nodes))
		s.RunTrace(refs)
		verifyHistogram(t, s, refs, rng)
	}
}

func TestMultiNodeCombiningCorrect(t *testing.T) {
	const rng = 1024
	for _, nodes := range []int{2, 4, 8} {
		span := mem.Addr((rng+nodes-1)/nodes+mem.LineWords-1) &^ (mem.LineWords - 1)
		s := New(smallConfig(nodes, 1, span, true), mem.AddI64)
		refs := uniformTrace(4096, rng, uint64(100+nodes))
		res := s.RunTrace(refs)
		if res.SumBacks == 0 {
			t.Fatalf("%d nodes: combining mode performed no sum-backs", nodes)
		}
		verifyHistogram(t, s, refs, rng)
	}
}

func TestHighBandwidthScales(t *testing.T) {
	// Narrow histogram with high network bandwidth: more nodes should give
	// higher throughput (the paper's narrow-high line, up to 7.1x at 8).
	const rng = 256
	run := func(nodes int) float64 {
		span := mem.Addr((rng+nodes-1)/nodes+mem.LineWords-1) &^ (mem.LineWords - 1)
		s := New(smallConfig(nodes, 8, span, false), mem.AddI64)
		return s.RunTrace(uniformTrace(16384, rng, 9)).AddsPerCycle()
	}
	one, eight := run(1), run(8)
	if eight < 2*one {
		t.Fatalf("8-node high-bw throughput %.2f not scaling over 1-node %.2f", eight, one)
	}
}

func TestLowBandwidthDirectDoesNotScale(t *testing.T) {
	// With a 1 word/cycle network and no combining, remote traffic caps
	// scaling (the paper's narrow-low line is flat).
	const rng = 256
	run := func(nodes int) float64 {
		span := mem.Addr((rng+nodes-1)/nodes+mem.LineWords-1) &^ (mem.LineWords - 1)
		s := New(smallConfig(nodes, 1, span, false), mem.AddI64)
		return s.RunTrace(uniformTrace(16384, rng, 11)).AddsPerCycle()
	}
	one, eight := run(1), run(8)
	if eight > 2.5*one {
		t.Fatalf("low-bw direct scaled %.2f -> %.2f; should be network bound", one, eight)
	}
}

func TestCombiningHelpsNarrowLowBandwidth(t *testing.T) {
	// The paper's key multi-node result: local combining + sum-back lets
	// even the low-bandwidth network scale on high-locality (narrow) data
	// (5.7x at 8 nodes in the paper).
	const rng = 256
	run := func(combining bool) float64 {
		nodes := 8
		span := mem.Addr((rng+nodes-1)/nodes+mem.LineWords-1) &^ (mem.LineWords - 1)
		s := New(smallConfig(nodes, 1, span, combining), mem.AddI64)
		return s.RunTrace(uniformTrace(16384, rng, 13)).AddsPerCycle()
	}
	direct, comb := run(false), run(true)
	if comb <= direct {
		t.Fatalf("combining (%.3f adds/cyc) not faster than direct (%.3f) on narrow data", comb, direct)
	}
}

func TestCombiningHurtsWideData(t *testing.T) {
	// Wide (1M-range) data has almost no cache locality: combining only adds
	// warm-up, eviction, and flush overhead (paper: "the added overhead ...
	// actually reduce[s] performance").
	const rng = 1 << 17
	nodes := 4
	run := func(combining bool) float64 {
		span := mem.Addr((rng+nodes-1)/nodes+mem.LineWords-1) &^ (mem.LineWords - 1)
		s := New(smallConfig(nodes, 8, span, combining), mem.AddI64)
		return s.RunTrace(uniformTrace(8192, rng, 17)).AddsPerCycle()
	}
	direct, comb := run(false), run(true)
	if comb >= direct {
		t.Fatalf("combining (%.3f) should not beat direct (%.3f) on wide data", comb, direct)
	}
}

func TestGBpsMetric(t *testing.T) {
	r := Result{Adds: 1000, Cycles: 1000}
	if r.AddsPerCycle() != 1.0 || r.GBps() != 8.0 {
		t.Fatalf("metrics: %.2f adds/cyc, %.2f GB/s", r.AddsPerCycle(), r.GBps())
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	cases := []func(){
		func() { New(smallConfig(0, 1, 64, false), mem.AddI64) },
		func() { New(smallConfig(2, 1, 64, false), mem.Read) },
		func() { New(smallConfig(2, 1, 64, false), mem.FetchAddI64) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestAddressBeyondSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := New(smallConfig(2, 1, 64, false), mem.AddI64)
	s.RunTrace([]Ref{{Addr: 1000, Val: mem.I64(1)}})
}

func TestHierarchicalCombiningCorrect(t *testing.T) {
	const rng = 1024
	for _, nodes := range []int{2, 4, 8} {
		span := mem.Addr((rng+nodes-1)/nodes+mem.LineWords-1) &^ (mem.LineWords - 1)
		cfg := smallConfig(nodes, 1, span, true)
		cfg.Topology = Hypercube()
		s := New(cfg, mem.AddI64)
		refs := uniformTrace(4096, rng, uint64(500+nodes))
		s.RunTrace(refs)
		verifyHistogram(t, s, refs, rng)
	}
}

func TestHierarchicalRequiresCombining(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := smallConfig(4, 1, 64, false)
	cfg.Topology = Topology{Kind: TopoHypercube}
	New(cfg, mem.AddI64)
}

func TestHierarchicalRequiresPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	cfg := smallConfig(6, 1, 64, true)
	cfg.Topology = Hypercube()
	New(cfg, mem.AddI64)
}

func TestSumBackRouting(t *testing.T) {
	cfg := smallConfig(8, 1, 64, true)
	cfg.Topology = Hypercube()
	s := New(cfg, mem.AddI64)
	// Owner of address 0 is node 0. From node 7 (111), hops flip the lowest
	// differing bit each time: 7 -> 6 -> 4 -> 0.
	if d := s.sumBackDst(7, 0); d != 6 {
		t.Fatalf("hop from 7 = %d want 6", d)
	}
	if d := s.sumBackDst(6, 0); d != 4 {
		t.Fatalf("hop from 6 = %d want 4", d)
	}
	if d := s.sumBackDst(4, 0); d != 0 {
		t.Fatalf("hop from 4 = %d want 0", d)
	}
	if d := s.sumBackDst(0, 0); d != 0 {
		t.Fatalf("hop from owner = %d want 0", d)
	}
}

func TestHierarchicalRelievesHotOwner(t *testing.T) {
	// When one node owns all the hot addresses, linear sum-back funnels
	// N-1 nodes' partial lines into that owner's single network port;
	// the hierarchy merges partials pairwise on the way, so the owner
	// receives only its tree children's lines — logarithmic fan-in.
	const rng = 128
	nodes := 8
	// Span covers the whole range: node 0 owns every bin.
	span := mem.Addr(rng+mem.LineWords) &^ (mem.LineWords - 1)
	run := func(hier bool) uint64 {
		cfg := smallConfig(nodes, 1, span, true)
		if hier {
			cfg.Topology = Hypercube()
		}
		s := New(cfg, mem.AddI64)
		refs := uniformTrace(16384, rng, 777)
		res := s.RunTrace(refs)
		verifyHistogram(t, s, refs, rng)
		return res.Cycles
	}
	linear, hier := run(false), run(true)
	if hier >= linear {
		t.Fatalf("hierarchical combining took %d cycles, linear %d", hier, linear)
	}
}

// Property: multi-node replay (any node count, both modes) matches the
// sequential reference.
func TestMultiNodeEquivalenceProperty(t *testing.T) {
	f := func(idx []uint8, nodesSel, modeSel uint8) bool {
		if len(idx) == 0 {
			return true
		}
		nodes := []int{1, 2, 3, 5, 8}[nodesSel%5]
		combining := modeSel%2 == 1
		const rng = 256
		span := mem.Addr((rng+nodes-1)/nodes+mem.LineWords-1) &^ (mem.LineWords - 1)
		s := New(smallConfig(nodes, 1, span, combining), mem.AddI64)
		refs := make([]Ref, len(idx))
		ref := map[mem.Addr]int64{}
		for i, x := range idx {
			a := mem.Addr(x)
			refs[i] = Ref{Addr: a, Val: mem.I64(int64(i%7 - 3))}
			ref[a] += int64(i%7 - 3)
		}
		s.RunTrace(refs)
		addrs := make([]mem.Addr, 0, len(ref))
		for a := range ref {
			addrs = append(addrs, a)
		}
		got := s.ReadResult(addrs)
		for i, a := range addrs {
			if mem.AsI64(got[i]) != ref[a] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

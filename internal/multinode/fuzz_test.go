package multinode

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/stats"
)

// topologyNames is ParseTopology's vocabulary.
var topologyNames = []string{"flat", "flat+comb", "hypercube", "tree", "tree+comb", "mesh", "mesh+comb"}

// FuzzParseTopology feeds arbitrary (name, fan-in) pairs to the topology
// parser. The corpus is seeded with every accepted name and some junk, each
// at fan-ins -3..5. Properties: ParseTopology never panics, it accepts
// exactly the seven names with a fan-in of 0 or at least 2, and every
// Topology it returns builds a 16-node system without panicking.
func FuzzParseTopology(f *testing.F) {
	junk := []string{"", "torus", "FLAT", "tree+", "+comb", "mesh+comb+comb", "hypercube ", "tree\x00"}
	for _, name := range append(append([]string(nil), topologyNames...), junk...) {
		for fanIn := -3; fanIn <= 5; fanIn++ {
			f.Add(name, fanIn)
		}
	}
	f.Fuzz(func(t *testing.T, name string, fanIn int) {
		topo, err := ParseTopology(name, fanIn)
		known := false
		for _, n := range topologyNames {
			known = known || n == name
		}
		if want := known && (fanIn == 0 || fanIn >= 2); (err == nil) != want {
			t.Fatalf("ParseTopology(%q, %d) error = %v, want accepted = %v", name, fanIn, err, want)
		}
		if err != nil {
			return
		}
		New(topoConfig(16, 1, lineSpan(1024, 16), topo), mem.AddI64)
	})
}

// fuzzSystem decodes a small multi-node system and its trace. Bytes in
// order, each read as zero past the end of the input:
//
//	nodes-1 (mod 16; a hypercube rounds down to a power of two),
//	topology (mod 7, ParseTopology's names), fan-in-2 (mod 4),
//	words per cycle-1 (mod 8), owner-span shift (mod 4),
//	faults (0: off, else fault.DefaultChaos scaled by byte/32),
//	fault seed offset, reference count (2 bytes, mod 513),
//	address range-1 (2 bytes, mod 4096), trace seed
//
// The nodes are Fig 14's trimmed node (2 banks, 256 lines, 2 DRAM
// channels). The owner span is the smallest line-aligned span that covers
// the range, shifted left, so a larger shift leaves the references to fewer
// owners. The trace draws addresses below the range and integer deltas in
// [-8, 8].
func fuzzSystem(data []byte) (Config, []Ref, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return int(v)
	}
	nodes := 1 + next()%16
	name := topologyNames[next()%len(topologyNames)]
	fanIn, words, shift := 2+next()%4, 1+next()%8, next()%4
	scale, seed := next(), next()
	n := (next()<<8 | next()) % 513
	rng := 1 + (next()<<8|next())%4096
	topo, err := ParseTopology(name, fanIn)
	if err != nil {
		panic(err)
	}
	if topo.Kind == TopoHypercube {
		nodes = 1 << (bits.Len(uint(nodes)) - 1)
	}
	cfg := hotConfig(nodes, lineSpan(rng, nodes)<<shift, topo)
	cfg.Net.WordsPerCyc = words
	if scale > 0 {
		cfg.Faults = fault.DefaultChaos().Scale(float64(scale) / 32)
		cfg.Faults.Seed += uint64(seed)
	}
	state := uint64(next())
	refs := make([]Ref, n)
	for i := range refs {
		state = state*6364136223846793005 + 1442695040888963407
		refs[i] = Ref{Addr: mem.Addr(state >> 33 % uint64(rng)), Val: mem.I64(int64(state>>20%17) - 8)}
	}
	return cfg, refs, rng
}

// multiNodeRun is what one stepping mode shows of a fuzzed replay: its
// Result, counters and final memory over the range, whether Verify passed,
// or the text it panicked with.
type multiNodeRun struct {
	res    Result
	snap   stats.Snapshot
	mem    []mem.Word
	verify error
	panic  string
}

// replayFuzz replays refs on a new system and reads it back.
func replayFuzz(cfg Config, refs []Ref, rng int) (run multiNodeRun) {
	defer func() {
		if r := recover(); r != nil {
			run.panic = fmt.Sprint(r)
		}
	}()
	s := New(cfg, mem.AddI64)
	run.res = s.RunTrace(refs)
	run.snap = s.StatsSnapshot()
	addrs := make([]mem.Addr, rng)
	for i := range addrs {
		addrs[i] = mem.Addr(i)
	}
	run.mem = s.ReadResult(addrs)
	run.verify = s.Verify(refs)
	return run
}

// FuzzMultiNodeStepping decodes a small multi-node system and trace
// (fuzzSystem), replays it under fast-forward and under legacy stepping,
// and requires the two to agree on the Result, on every counter of the
// snapshot and on the final memory over the range, and Verify to pass in
// both. A run may panic only by giving up on an unacknowledged packet
// (MaxRetries), and then the other mode must panic with the same text.
// The corpus in testdata holds the TestActivityMatchesLegacy hot-histogram
// cases and the TestChaosFFMatchesLegacy pair, cut to 16 nodes and 512
// references, an 8-words-per-cycle flat crossbar, and writeback-hazard:
// one node whose cache once fetched a line ahead of the line's queued
// write-back and lost an update.
func FuzzMultiNodeStepping(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, refs, rng := fuzzSystem(data)
		fast := replayFuzz(cfg, refs, rng)
		cfg.LegacyStepping = true
		slow := replayFuzz(cfg, refs, rng)
		if fast.panic != "" || slow.panic != "" {
			if fast.panic != slow.panic || !strings.Contains(fast.panic, "unacked after") {
				t.Fatalf("panics differ or are not a give-up:\nfast-forward: %q\nlegacy:       %q", fast.panic, slow.panic)
			}
			return
		}
		if fast.res != slow.res {
			t.Fatalf("results differ:\nfast-forward %+v\nlegacy       %+v", fast.res, slow.res)
		}
		if len(fast.snap.Entries) != len(slow.snap.Entries) {
			t.Fatalf("snapshots hold %d and %d counters", len(fast.snap.Entries), len(slow.snap.Entries))
		}
		for i, e := range fast.snap.Entries {
			if e != slow.snap.Entries[i] {
				t.Fatalf("counter %q: fast-forward %d, legacy %q %d", e.Key, e.Val, slow.snap.Entries[i].Key, slow.snap.Entries[i].Val)
			}
		}
		for a := range fast.mem {
			if fast.mem[a] != slow.mem[a] {
				t.Fatalf("address %d: fast-forward %d, legacy %d", a, mem.AsI64(fast.mem[a]), mem.AsI64(slow.mem[a]))
			}
		}
		if fast.verify != nil || slow.verify != nil {
			t.Fatalf("verification: fast-forward %v, legacy %v", fast.verify, slow.verify)
		}
	})
}

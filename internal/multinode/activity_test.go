package multinode

import (
	"reflect"
	"strings"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/span"
)

// hotConfig is a Fig 14 style system: the trimmed node (2 cache banks, 2
// DRAM channels, a small cache) on the given topology, owning span words per
// node.
func hotConfig(nodes int, span mem.Addr, topo Topology) Config {
	cfg := DefaultConfig(nodes, 1, span)
	cfg.Topology = topo
	cfg.Cache.Banks = 2
	cfg.Cache.TotalLines = 256
	cfg.DRAM.Channels = 2
	cfg.DRAM.BanksPerChannel = 4
	cfg.Net.WireDepth = 64
	return cfg
}

// activityRun is everything a replay exposes: its Result, counters (with
// every histogram bucket), span report, final memory, and the nodes whose
// memory side was built once all of those were read.
type activityRun struct {
	res   Result
	snap  interface{}
	rep   span.Report
	mem   []mem.Word
	built []int
}

// replayHot replays refs on a new system, with every node's memory side
// built up front when eager is set.
func replayHot(cfg Config, refs []Ref, rng int, eager bool) activityRun {
	s := New(cfg, mem.AddI64)
	if eager {
		s.buildAll()
	}
	tr := span.New(4)
	s.SetSpanTracer(tr)
	res := s.RunTrace(refs)
	addrs := make([]mem.Addr, rng)
	for i := range addrs {
		addrs[i] = mem.Addr(i)
	}
	run := activityRun{res: res, snap: s.StatsSnapshot(), rep: span.Aggregate(tr.Ops()), mem: s.ReadResult(addrs)}
	run.built = s.built()
	return run
}

// TestActivityMatchesLegacy: fast-forward stepping must equal per-cycle
// legacy stepping in Result, counters (with every histogram bucket), span
// report and final memory where most of the system sleeps most of the time.
// Node grain: on 256 trimmed nodes replaying a hot histogram whose 64 bins
// belong to the first 8 nodes, almost every node sleeps almost every cycle;
// this runs on every fabric, on the combining modes that run flush rounds,
// and through a chaos run that degrades nodes from combining to direct.
// Switch grain: a combining mesh, and a combining tree under the default
// chaos faults, where blocked switches sleep and owe their stalls
// (Result.NetStats). Component grain: on Table-1 nodes (8 banks, 16 DRAM
// channels) replaying Fig 13's wide histogram, a working node's units,
// banks and channels are mostly idle, so the due set ticks few of them, and
// combining banks blocked in the flush round sleep.
func TestActivityMatchesLegacy(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node and Table-1 legacy replays")
	}
	const nodes, rng = 256, 64
	refs := uniformTrace(4096, rng, 71)
	span := lineSpan(rng, nodes)
	chaos := hotConfig(nodes, span, FlatCombining())
	chaos.Faults = fault.DefaultChaos()
	chaos.Faults.CSCorruptRate = 0.05
	chaos.Faults.DegradeThreshold = 1
	treeChaos := hotConfig(nodes, span, Tree(4, true))
	treeChaos.Faults = fault.DefaultChaos()

	// Fig 13's wide trace at its -scale 16 length, on the low-bandwidth
	// crossbar of the figure's wide-low lines.
	const wideRng = 1 << 20
	wide := uniformTrace(4096, wideRng, 0xF16_13+1)
	table1 := func(nodes int, topo Topology) Config {
		cfg := DefaultConfig(nodes, 1, lineSpan(wideRng, nodes))
		cfg.Topology = topo
		return cfg
	}
	wideChaos := table1(4, FlatCombining())
	wideChaos.Faults = fault.DefaultChaos()
	wideChaos.Faults.DegradeThreshold = 1

	cases := []struct {
		name     string
		cfg      Config
		refs     []Ref
		rng      int
		degrades bool
	}{
		{"flat", hotConfig(nodes, span, Flat()), refs, rng, false},
		{"tree+comb", hotConfig(nodes, span, Tree(4, true)), refs, rng, false},
		{"mesh", hotConfig(nodes, span, Mesh(false)), refs, rng, false},
		{"mesh+comb", hotConfig(nodes, span, Mesh(true)), refs, rng, false},
		// Per-hop drops, duplicates and retransmissions while blocked
		// switches sleep.
		{"tree+comb-chaos", treeChaos, refs, rng, false},
		{"flat+comb", hotConfig(nodes, span, FlatCombining()), refs, rng, false},
		{"hypercube", hotConfig(nodes, span, Hypercube()), refs, rng, false},
		// Retransmission storms keep most nodes busy under chaos; a shorter
		// trace still degrades dozens of them.
		{"chaos-degraded", chaos, refs[:1024], rng, true},
		{"table1-flat+comb-2", table1(2, FlatCombining()), wide, wideRng, false},
		{"table1-flat+comb-8", table1(8, FlatCombining()), wide, wideRng, false},
		{"table1-flat-4", table1(4, Flat()), wide, wideRng, false},
		{"table1-chaos-degraded", wideChaos, wide, wideRng, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			ff := replayHot(cfg, tc.refs, tc.rng, false)
			cfg.LegacyStepping = true
			legacy := replayHot(cfg, tc.refs, tc.rng, false)
			if ff.res != legacy.res {
				t.Fatalf("FF result %+v != legacy %+v", ff.res, legacy.res)
			}
			if !reflect.DeepEqual(ff.snap, legacy.snap) {
				t.Fatal("FF counters diverge from legacy stepping")
			}
			if !reflect.DeepEqual(ff.rep, legacy.rep) {
				t.Fatalf("FF span report diverges from legacy:\n%s\nvs\n%s", ff.rep.Format("  "), legacy.rep.Format("  "))
			}
			if !reflect.DeepEqual(ff.mem, legacy.mem) {
				t.Fatal("FF final memory diverges from legacy")
			}
			if tc.degrades && ff.res.Degraded == 0 {
				t.Fatalf("no node degraded at DegradeThreshold 1: %+v", ff.res)
			}
		})
	}
}

// TestPerCycleSampleLaw checks, in both stepping modes, that after a replay
// every per-cycle histogram of every node holds exactly one sample per cycle
// of the system clock and no unit's FU was busy for more cycles: on 4
// Table-1 nodes combining in their caches through the flush-with-sum-back
// round, and under chaos faults that degrade nodes from combining to
// direct. Both stepping modes count occupancy at change points, so the
// differ, which compares them, cannot see a sampling fault they share.
func TestPerCycleSampleLaw(t *testing.T) {
	if testing.Short() {
		t.Skip("Table-1 legacy replays")
	}
	const wideRng = 1 << 20
	wide := uniformTrace(2048, wideRng, 0xF16_13+1)
	comb := DefaultConfig(4, 1, lineSpan(wideRng, 4))
	comb.Topology = FlatCombining()
	chaos := comb
	chaos.Faults = fault.DefaultChaos()
	chaos.Faults.DegradeThreshold = 1
	for _, tc := range []struct {
		name     string
		cfg      Config
		degrades bool
	}{{"flat+comb", comb, false}, {"table1-chaos-degraded", chaos, true}} {
		for _, legacy := range []bool{false, true} {
			cfg := tc.cfg
			cfg.LegacyStepping = legacy
			s := New(cfg, mem.AddI64)
			res := s.RunTrace(wide)
			if res.SumBacks == 0 || tc.degrades && res.Degraded == 0 {
				t.Fatalf("%s: no sum-backs, or no node degraded: %+v", tc.name, res)
			}
			seen := 0
			for _, e := range s.StatsSnapshot().Entries {
				switch {
				case strings.HasSuffix(e.Key, "_occupancy.count"):
					seen++
					if e.Val != s.now {
						t.Errorf("%s legacy=%v: %s = %d, want one sample per cycle (%d)", tc.name, legacy, e.Key, e.Val, s.now)
					}
				case strings.HasSuffix(e.Key, "/fu_busy_cycles") && e.Val > s.now:
					t.Errorf("%s legacy=%v: %s = %d exceeds the %d cycles elapsed", tc.name, legacy, e.Key, e.Val, s.now)
				}
			}
			if seen == 0 {
				t.Fatalf("%s: no per-cycle histogram in the snapshot", tc.name)
			}
		}
	}
}

// TestStepActiveDoesNotAllocate: once a replay has opened the fabric's
// ports and staging rings, a busy cycle of activity-driven stepping
// allocates nothing, on a combining tree, a combining mesh and the flat
// crossbar. The cycles are measured mid-replay, with nodes issuing and
// switches forwarding.
func TestStepActiveDoesNotAllocate(t *testing.T) {
	const nodes, rng = 64, 64
	for _, tc := range []struct {
		name string
		topo Topology
	}{{"tree+comb", Tree(4, true)}, {"mesh+comb", Mesh(true)}, {"flat", Flat()}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(hotConfig(nodes, lineSpan(rng, nodes), tc.topo), mem.AddI64)
			s.load(uniformTrace(16384, rng, 5))
			s.rescan()
			for c := 0; c < 300; c++ {
				s.stepActive()
			}
			if allocs := testing.AllocsPerRun(100, s.stepActive); allocs != 0 {
				t.Fatalf("stepActive allocates %.1f times per busy cycle", allocs)
			}
			if s.done() || !s.xbar.Busy() {
				t.Fatalf("replay drained by cycle %d: the measured cycles were not all busy", s.now)
			}
		})
	}
}

// TestVerify: Verify accepts a replay's final memory, and rejects it once a
// single bin is corrupted behind the system's back.
func TestVerify(t *testing.T) {
	const nodes, rng = 4, 256
	s := New(smallConfig(nodes, 1, lineSpan(rng, nodes), true), mem.AddI64)
	refs := uniformTrace(2048, rng, 29)
	s.RunTrace(refs)
	if err := s.Verify(refs); err != nil {
		t.Fatalf("clean replay failed verification: %v", err)
	}
	const bad = mem.Addr(200)
	st := s.nodes[s.owner(bad)].mem.dram.Store()
	st.StoreI64(bad, st.LoadI64(bad)+1)
	err := s.Verify(refs)
	if err == nil || !strings.Contains(err.Error(), "address 200") {
		t.Fatalf("corrupted bin 200 passed verification (err %v)", err)
	}

	// A trace with gaps: only even addresses are touched, and the odd ones
	// in between must still read zero.
	s = New(smallConfig(nodes, 1, lineSpan(rng, nodes), true), mem.AddI64)
	even := uniformTrace(2048, rng/2, 31)
	for i := range even {
		even[i].Addr *= 2
	}
	s.RunTrace(even)
	if err := s.Verify(even); err != nil {
		t.Fatalf("clean gapped replay failed verification: %v", err)
	}
	const hole = mem.Addr(131)
	st = s.nodes[s.owner(hole)].mem.dram.Store()
	st.StoreI64(hole, 7)
	err = s.Verify(even)
	if err == nil || !strings.Contains(err.Error(), "address 131 = 7, want 0") {
		t.Fatalf("a write to untouched address 131 passed verification (err %v)", err)
	}
}

// TestReadResultRuns: ReadResult reads each run of consecutive addresses
// on one owner with a single range read, yet must answer every address from
// its own owner's memory — with gaps, in reversed order, across owner
// boundaries (a consecutive run that crosses one must split), and with
// repeats.
func TestReadResultRuns(t *testing.T) {
	const nodes, rng = 4, 256
	span := lineSpan(rng, nodes)
	s := New(smallConfig(nodes, 1, span, false), mem.AddI64)
	refs := uniformTrace(2048, rng, 41)
	s.RunTrace(refs)
	want := make([]int64, rng)
	for _, r := range refs {
		want[r.Addr] += mem.AsI64(r.Val)
	}
	addrs := []mem.Addr{
		0, 1, 2, 3, 9, 12, 13, // gaps inside node 0
		span - 2, span - 1, span, span + 1, // consecutive across an owner boundary
		2*span + 2, 2*span + 1, 2 * span, 2*span - 1, 2*span - 2, // reversed across one
		rng - 1, rng - 2, 5, 5, 5, // reversed tail, then repeats
	}
	got := s.ReadResult(addrs)
	for i, a := range addrs {
		if want[a] == 0 {
			t.Fatalf("bin %d is empty; pick a trace that fills every bin", a)
		}
		if mem.AsI64(got[i]) != want[a] {
			t.Fatalf("addrs[%d] = %d: read %d, want %d", i, a, mem.AsI64(got[i]), want[a])
		}
	}
	if len(s.ReadResult(nil)) != 0 {
		t.Fatal("ReadResult(nil) returned words")
	}
}

// TestVerifyFloatTolerance: floating-point traces match within the 1e-9
// relative tolerance that reordered combining needs, and no further.
func TestVerifyFloatTolerance(t *testing.T) {
	const nodes, rng = 2, 64
	refs := make([]Ref, 512)
	for i := range refs {
		refs[i] = Ref{Addr: mem.Addr(i % rng), Val: mem.F64(0.1 * float64(i%7+1))}
	}
	s := New(smallConfig(nodes, 1, lineSpan(rng, nodes), true), mem.AddF64)
	s.RunTrace(refs)
	if err := s.Verify(refs); err != nil {
		t.Fatalf("clean float replay failed verification: %v", err)
	}
	st := s.nodes[0].mem.dram.Store()
	st.StoreF64(3, st.LoadF64(3)*(1+1e-6))
	if err := s.Verify(refs); err == nil {
		t.Fatal("a 1e-6 relative error passed verification")
	}
}

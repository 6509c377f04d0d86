package multinode

import (
	"fmt"
	"reflect"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// Config.Shards is a deprecated no-op: a simulation always runs on its
// caller's goroutine. The benchmark harness still sets it, so the tests in
// this file pin that no value of it — in range, out of range, or the
// harness's 1 — moves a byte of any result, counter, span report or final
// memory image. They go away together with the field.

// shardOutcome is everything observable from one replay: the throughput
// result, the full counter snapshot, the aggregated span report and the
// final memory.
type shardOutcome struct {
	res    Result
	snap   stats.Snapshot
	report string
	values []mem.Word
}

func runSharded(t *testing.T, cfg Config, refs []Ref, rangeSize int) shardOutcome {
	t.Helper()
	s := New(cfg, mem.AddI64)
	tr := span.New(16)
	s.SetSpanTracer(tr)
	res := s.RunTrace(refs)
	if tr.Live() != 0 {
		t.Fatalf("shards=%d: %d live ops after drain", cfg.Shards, tr.Live())
	}
	addrs := make([]mem.Addr, rangeSize)
	for i := range addrs {
		addrs[i] = mem.Addr(i)
	}
	return shardOutcome{
		res:    res,
		snap:   s.StatsSnapshot(),
		report: span.Aggregate(tr.Ops()).Format(""),
		values: s.ReadResult(addrs),
	}
}

// shardConfigs is the matrix the byte-identity test sweeps: both stepping
// modes, fault-free and DefaultChaos, direct, combining and hypercube
// (hierarchical) combining.
func shardConfigs() map[string]Config {
	const rng = 1024
	cfgs := make(map[string]Config)
	for _, legacy := range []bool{false, true} {
		for _, faults := range []bool{false, true} {
			name := fmt.Sprintf("legacy=%v/faults=%v", legacy, faults)
			direct := smallConfig(4, 2, rng/4, false)
			direct.LegacyStepping = legacy
			comb := smallConfig(4, 2, rng/4, true)
			comb.LegacyStepping = legacy
			hier := smallConfig(4, 2, rng/4, true)
			hier.Topology = Hypercube()
			hier.LegacyStepping = legacy
			if faults {
				direct.Faults = fault.DefaultChaos()
				comb.Faults = fault.DefaultChaos()
				hier.Faults = fault.DefaultChaos()
			}
			cfgs["direct/"+name] = direct
			cfgs["combining/"+name] = comb
			cfgs["hierarchical/"+name] = hier
		}
	}
	return cfgs
}

// TestShardedByteIdentical: replaying the same trace with Shards set to 1,
// 2, 3, 4 and 8 produces the same result struct, the same counter snapshot
// entry for entry, the same span report and the same final memory — in
// both stepping modes, with and without chaos faults, in every flat-crossbar
// network mode.
func TestShardedByteIdentical(t *testing.T) {
	const rng = 1024
	refs := uniformTrace(4096, rng, 11)
	for name, cfg := range shardConfigs() {
		t.Run(name, func(t *testing.T) {
			cfg.Shards = 1
			want := runSharded(t, cfg, refs, rng)
			for _, shards := range []int{2, 3, 4, 8} {
				cfg.Shards = shards
				got := runSharded(t, cfg, refs, rng)
				if got.res != want.res {
					t.Fatalf("shards=%d result diverged:\n got %+v\nwant %+v", shards, got.res, want.res)
				}
				if !reflect.DeepEqual(got.snap, want.snap) {
					t.Fatalf("shards=%d counter snapshot diverged", shards)
				}
				if got.report != want.report {
					t.Fatalf("shards=%d span report diverged:\n%s\nvs\n%s", shards, got.report, want.report)
				}
				if !reflect.DeepEqual(got.values, want.values) {
					t.Fatalf("shards=%d final memory diverged", shards)
				}
			}
		})
	}
}

// TestShardedMatchesReference checks a run with Shards set still computes
// the right histogram, not just the same one as Shards=1.
func TestShardedMatchesReference(t *testing.T) {
	const rng = 2048
	refs := uniformTrace(8192, rng, 7)
	for _, combining := range []bool{false, true} {
		cfg := smallConfig(4, 2, rng/4, combining)
		cfg.Shards = 4
		s := New(cfg, mem.AddI64)
		res := s.RunTrace(refs)
		if res.Adds != uint64(len(refs)) || res.Cycles == 0 {
			t.Fatalf("combining=%v result: %+v", combining, res)
		}
		verifyHistogram(t, s, refs, rng)
	}
}

// TestShardedDegradeIdentical: a fault config aggressive enough to trip the
// combining-to-direct fallback degrades the same node count and yields the
// same counters whatever Shards says.
func TestShardedDegradeIdentical(t *testing.T) {
	const rng = 1024
	refs := uniformTrace(8192, rng, 5)
	base := smallConfig(4, 2, rng/4, true)
	base.Faults = fault.DefaultChaos()
	base.Faults.CSCorruptRate = 0.2 // scrub storm
	base.Faults.DegradeThreshold = 8
	base.Shards = 1
	want := runSharded(t, base, refs, rng)
	if want.res.Degraded == 0 {
		t.Fatalf("config did not degrade any node; test is vacuous: %+v", want.res)
	}
	for _, shards := range []int{2, 4} {
		cfg := base
		cfg.Shards = shards
		got := runSharded(t, cfg, refs, rng)
		if got.res != want.res {
			t.Fatalf("shards=%d degrade outcome diverged:\n got %+v\nwant %+v", shards, got.res, want.res)
		}
		if !reflect.DeepEqual(got.snap, want.snap) {
			t.Fatalf("shards=%d counter snapshot diverged", shards)
		}
	}
}

// TestShardsClamped checks out-of-range Shards values (negative, zero, above
// the node count) are accepted without a panic and change nothing.
func TestShardsClamped(t *testing.T) {
	const rng = 512
	refs := uniformTrace(1024, rng, 3)
	want := runSharded(t, smallConfig(2, 1, rng/2, false), refs, rng)
	for _, shards := range []int{-1, 0, 7} {
		cfg := smallConfig(2, 1, rng/2, false)
		cfg.Shards = shards
		got := runSharded(t, cfg, refs, rng)
		if got.res != want.res {
			t.Fatalf("Shards=%d result diverged: %+v vs %+v", shards, got.res, want.res)
		}
	}
}

// TestShardedRace runs a small Fig 13 style configuration with Shards set
// and spans, faults and fast-forward all on — the maximal set of active
// machinery — under the race detector when the suite runs with -race. The
// system must start no goroutine of its own, so there is nothing to race.
func TestShardedRace(t *testing.T) {
	const rng = 2048
	refs := uniformTrace(8192, rng, 13)
	for _, combining := range []bool{false, true} {
		cfg := smallConfig(8, 2, rng/8, combining)
		cfg.Shards = 4
		cfg.Faults = fault.DefaultChaos()
		s := New(cfg, mem.AddI64)
		s.SetSpanTracer(span.New(8))
		res := s.RunTrace(refs)
		if res.Adds != uint64(len(refs)) {
			t.Fatalf("combining=%v short replay: %+v", combining, res)
		}
		verifyHistogram(t, s, refs, rng)
	}
}

// TestTopologyShardedIdentical: on every multi-hop fabric, with and without
// chaos faults, Shards set to 2 or 4 is byte-identical to Shards=1.
func TestTopologyShardedIdentical(t *testing.T) {
	const rng = 1024
	refs := uniformTrace(4096, rng, 29)
	for name, topo := range topoMatrix() {
		t.Run(name, func(t *testing.T) {
			for _, faults := range []bool{false, true} {
				cfg := topoConfig(4, 2, lineSpan(rng, 4), topo)
				if faults {
					cfg.Faults = fault.DefaultChaos()
				}
				cfg.Shards = 1
				want := runSharded(t, cfg, refs, rng)
				for _, shards := range []int{2, 4} {
					cfg.Shards = shards
					got := runSharded(t, cfg, refs, rng)
					if got.res != want.res {
						t.Fatalf("faults=%v shards=%d result diverged:\n got %+v\nwant %+v",
							faults, shards, got.res, want.res)
					}
					if !reflect.DeepEqual(got.snap, want.snap) {
						t.Fatalf("faults=%v shards=%d counter snapshot diverged", faults, shards)
					}
					if got.report != want.report {
						t.Fatalf("faults=%v shards=%d span report diverged", faults, shards)
					}
					if !reflect.DeepEqual(got.values, want.values) {
						t.Fatalf("faults=%v shards=%d final memory diverged", faults, shards)
					}
				}
			}
		})
	}
}

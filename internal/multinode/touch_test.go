package multinode

import (
	"reflect"
	"slices"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
)

// TestFirstTouchMatchesEagerBuild: a node builds its memory side at its
// first local reference, first data packet received or first combining-bank
// use, and a replay is the same as one whose nodes were all built up front
// in Result, in the full per-instance counter snapshot (an untouched node
// reads as an idle built one, with one level-0 occupancy sample per cycle),
// in the span report and in final memory. On BenchmarkFig14Tree1024's
// configuration (4,096 references over 256 bins on 1,024 trimmed nodes,
// fan-in-4 tree with in-switch combining) exactly the 32 owner nodes build
// memory, under fast-forward, under legacy stepping and under the default
// chaos faults, and the snapshot and readback build none. On 256 nodes the end-to-end link layer of the flat crossbar
// acknowledges to senders that never build memory, and the combining modes
// with a trace shorter than the node count leave nodes untouched through
// the flush-with-sum-back rounds.
func TestFirstTouchMatchesEagerBuild(t *testing.T) {
	const rng = 256
	owners := func(refs []Ref, span mem.Addr) []int {
		var ids []int
		for _, r := range refs {
			ids = append(ids, int(r.Addr/span))
		}
		slices.Sort(ids)
		return slices.Compact(ids)
	}
	issuersAndOwners := func(refs []Ref, span mem.Addr) []int {
		ids := owners(refs, span)
		for i := range refs {
			ids = append(ids, i)
		}
		slices.Sort(ids)
		return slices.Compact(ids)
	}

	tree := hotConfig(1024, lineSpan(rng, 1024), Tree(4, true))
	treeLegacy := tree
	treeLegacy.LegacyStepping = true
	treeChaos := tree
	treeChaos.Faults = fault.DefaultChaos()
	hot := uniformTrace(4096, rng, 0xF16_14)

	const small = 256
	flatChaos := hotConfig(small, lineSpan(rng, small), Flat())
	flatChaos.Faults = fault.DefaultChaos()
	short := uniformTrace(100, rng, 83)

	cases := []struct {
		name  string
		cfg   Config
		refs  []Ref
		built func([]Ref, mem.Addr) []int // nil: not pinned
	}{
		{"tree+comb-1024", tree, hot, owners},
		{"tree+comb-1024-legacy", treeLegacy, hot, owners},
		{"tree+comb-1024-chaos", treeChaos, hot, owners},
		{"flat-chaos", flatChaos, hot[:1024], owners},
		{"flat+comb-short", hotConfig(small, lineSpan(rng, small), FlatCombining()), short, issuersAndOwners},
		{"hypercube-short", hotConfig(small, lineSpan(rng, small), Hypercube()), short, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lazy := replayHot(tc.cfg, tc.refs, rng, false)
			if tc.built != nil {
				if want := tc.built(tc.refs, tc.cfg.OwnerSpan); !slices.Equal(lazy.built, want) {
					t.Fatalf("nodes %v built memory, want %v", lazy.built, want)
				}
			}
			if len(lazy.built) == tc.cfg.Nodes {
				t.Fatalf("every node built memory: the case does not test first touch")
			}
			eager := replayHot(tc.cfg, tc.refs, rng, true)
			if lazy.res != eager.res {
				t.Fatalf("first-touch result %+v != eager %+v", lazy.res, eager.res)
			}
			if !reflect.DeepEqual(lazy.snap, eager.snap) {
				t.Fatal("first-touch counters diverge from the eagerly built system")
			}
			if !reflect.DeepEqual(lazy.rep, eager.rep) {
				t.Fatalf("first-touch span report diverges:\n%s\nvs\n%s", lazy.rep.Format("  "), eager.rep.Format("  "))
			}
			if !reflect.DeepEqual(lazy.mem, eager.mem) {
				t.Fatal("first-touch final memory diverges")
			}
		})
	}
}

// TestEmptyTraceTakesNoCycles: an empty replay builds no node's memory and
// takes no cycles in every mode, the combining modes' flush rounds
// included, and its counter snapshot builds none either.
func TestEmptyTraceTakesNoCycles(t *testing.T) {
	for name, topo := range map[string]Topology{
		"flat":       Flat(),
		"flat+comb":  FlatCombining(),
		"hypercube":  Hypercube(),
		"tree4+comb": Tree(4, true),
	} {
		t.Run(name, func(t *testing.T) {
			s := New(hotConfig(8, 64, topo), mem.AddI64)
			res := s.RunTrace(nil)
			if res.Cycles != 0 || res.Adds != 0 {
				t.Fatalf("empty replay took %d cycles for %d adds, want 0 and 0", res.Cycles, res.Adds)
			}
			s.StatsSnapshot()
			if err := s.Verify(nil); err != nil {
				t.Fatal(err)
			}
			if b := s.built(); len(b) != 0 {
				t.Fatalf("nodes %v built memory for an empty replay", b)
			}
		})
	}
}

package multinode

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/span"
)

// TestSpanTracerMultiNodeDirect checks remote scatter-adds carry
// node-qualified identities: sampled ops from every node complete, remote
// ones visit the network stage, and the export carries per-node tracks.
func TestSpanTracerMultiNodeDirect(t *testing.T) {
	const rng = 1024
	nodes := 4
	s := New(smallConfig(nodes, 8, rng/mem.Addr(nodes), false), mem.AddI64)
	tr := span.New(4)
	s.SetSpanTracer(tr)
	refs := uniformTrace(2048, rng, 7)
	s.RunTrace(refs)
	verifyHistogram(t, s, refs, rng)

	ops := tr.Ops()
	if len(ops) == 0 {
		t.Fatal("no ops sampled")
	}
	if live := tr.Live(); live != 0 {
		t.Fatalf("%d sampled ops never completed", live)
	}
	seenNodes := map[int]bool{}
	sawNet := false
	for _, op := range ops {
		seenNodes[op.Node] = true
		for _, tn := range op.Trans {
			if tn.Stage == span.StageNet {
				sawNet = true
			}
		}
	}
	if len(seenNodes) != nodes {
		t.Fatalf("sampled ops from %d nodes, want %d", len(seenNodes), nodes)
	}
	if !sawNet {
		t.Fatal("no sampled op crossed the network (uniform trace over 4 nodes must have remote refs)")
	}
	// Node-qualified component tracks must appear in the Perfetto export.
	var buf bytes.Buffer
	if err := span.WriteTraceEvents(&buf, []span.Process{tr.Process(0, "multinode")}); err != nil {
		t.Fatal(err)
	}
	if _, err := span.ValidateTraceJSON(buf.Bytes()); err != nil {
		t.Fatalf("export does not validate: %v", err)
	}
	out := buf.String()
	for _, track := range []string{"dram[0]", "dram[3]", "saunit[0.0]", "net.out["} {
		if !strings.Contains(out, track) {
			t.Fatalf("export missing node-qualified track %q", track)
		}
	}
}

// TestSpanTracerCombiningEndsLocally checks that in combining mode a
// sampled remote op's lifecycle terminates at the local combining bank, and
// sum-back traffic (tagged IDs) never aliases a sampled op.
func TestSpanTracerCombiningEndsLocally(t *testing.T) {
	const rng = 512
	nodes := 4
	s := New(smallConfig(nodes, 1, rng/mem.Addr(nodes), true), mem.AddI64)
	tr := span.New(2)
	s.SetSpanTracer(tr)
	refs := uniformTrace(2048, rng, 11)
	s.RunTrace(refs)
	verifyHistogram(t, s, refs, rng)
	if live := tr.Live(); live != 0 {
		t.Fatalf("%d sampled ops never completed (sum-back ID aliasing?)", live)
	}
	if len(tr.Ops()) == 0 {
		t.Fatal("no ops sampled")
	}
	rep := span.Aggregate(tr.Ops())
	if rep.Ops == 0 || rep.Mean <= 0 {
		t.Fatalf("report: %+v", rep)
	}
}

// TestSpanTracerDoesNotPerturbMultiNode requires identical cycle counts and
// results with and without tracing.
func TestSpanTracerDoesNotPerturbMultiNode(t *testing.T) {
	const rng = 512
	for _, combining := range []bool{false, true} {
		run := func(rate int) Result {
			s := New(smallConfig(2, 1, rng/2, combining), mem.AddI64)
			if rate > 0 {
				s.SetSpanTracer(span.New(rate))
			}
			return s.RunTrace(uniformTrace(1024, rng, 13))
		}
		bare, traced := run(0), run(1)
		if bare != traced {
			t.Fatalf("combining=%v: tracing changed the result: %+v != %+v", combining, bare, traced)
		}
	}
}

// TestSpanOpsDrainAcrossConfigs: every sampled op closes its lifecycle by
// the end of a drained replay, whatever path it took — direct remote
// scatter-adds, cache combining with sum-backs, hypercube sum-back hops,
// every multi-hop fabric with and without in-switch merging, a
// combining-to-direct degradation mid-run — in both stepping modes and
// under chaos faults (retransmitted, duplicated and dropped frames).
func TestSpanOpsDrainAcrossConfigs(t *testing.T) {
	const rng = 1024
	refs := uniformTrace(4096, rng, 11)
	cfgs := map[string]Config{
		"direct":       topoConfig(4, 2, lineSpan(rng, 4), Flat()),
		"combining":    topoConfig(4, 2, lineSpan(rng, 4), FlatCombining()),
		"hierarchical": topoConfig(4, 2, lineSpan(rng, 4), Hypercube()),
	}
	for name, topo := range topoMatrix() {
		cfgs[name] = topoConfig(4, 2, lineSpan(rng, 4), topo)
	}
	degrade := topoConfig(4, 2, lineSpan(rng, 4), FlatCombining())
	degrade.Faults = fault.DefaultChaos()
	degrade.Faults.CSCorruptRate = 0.2 // scrub storm
	degrade.Faults.DegradeThreshold = 8
	cfgs["degrade"] = degrade
	for name, base := range cfgs {
		for _, legacy := range []bool{false, true} {
			for _, faults := range []bool{false, true} {
				if name == "degrade" && !faults {
					continue
				}
				t.Run(fmt.Sprintf("%s/legacy=%v/faults=%v", name, legacy, faults), func(t *testing.T) {
					cfg := base
					cfg.LegacyStepping = legacy
					if faults && name != "degrade" {
						cfg.Faults = fault.DefaultChaos()
					}
					s := New(cfg, mem.AddI64)
					tr := span.New(16)
					s.SetSpanTracer(tr)
					res := s.RunTrace(refs)
					if len(tr.Ops()) == 0 {
						t.Fatal("no ops sampled")
					}
					if live := tr.Live(); live != 0 {
						t.Fatalf("%d live ops after drain", live)
					}
					if name == "degrade" && res.Degraded == 0 {
						t.Fatalf("scrub storm degraded no node: %+v", res)
					}
					verifyHistogram(t, s, refs, rng)
				})
			}
		}
	}
}

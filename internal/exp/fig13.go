package exp

import (
	"fmt"

	"scatteradd/internal/mem"
	"scatteradd/internal/multinode"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
	"scatteradd/internal/workload"
)

// trace is one Figure 13 workload: a scatter-add reference stream and its
// combine kind.
type trace struct {
	name string
	kind mem.Kind
	refs []multinode.Ref
	span mem.Addr // index-space size (max address + 1)
}

// traceConfig is one line of Figure 13.
type traceConfig struct {
	label     string
	bandwidth int // words/cycle per node (1 = low, 8 = high)
	topo      multinode.Topology
}

// narrowTrace and wideTrace are the two histogram datasets of §4.5: 64K
// scatter-add references over a 256-entry (narrow) or 1M-entry (wide)
// index range.
func histTrace(name string, n, rng int, seed uint64) trace {
	idx := workload.UniformIndices(n, rng, seed)
	refs := make([]multinode.Ref, n)
	for i, x := range idx {
		refs[i] = multinode.Ref{Addr: mem.Addr(x), Val: mem.I64(1)}
	}
	return trace{name: name, kind: mem.AddI64, refs: refs, span: mem.Addr(rng)}
}

// moleTrace extracts the molecular-dynamics scatter-add reference stream
// (§4.5: "GROMACS uses the first 590K references which span 8,192 unique
// indices").
func moleTrace(o Options) trace {
	md := Fig10Input(o)
	addrs, vals := md.SARefs()
	limit := 590_000
	if len(addrs) > limit {
		addrs, vals = addrs[:limit], vals[:limit]
	}
	refs := make([]multinode.Ref, len(addrs))
	var maxA mem.Addr
	for i := range addrs {
		a := addrs[i] - md.ForceBase
		refs[i] = multinode.Ref{Addr: a, Val: vals[i]}
		if a > maxA {
			maxA = a
		}
	}
	return trace{name: "mole", kind: mem.AddF64, refs: refs, span: maxA + 1}
}

// spasTrace extracts the EBE SpMV scatter-add stream (§4.5: "SPAS uses the
// full set of 38K references over 10,240 indices").
func spasTrace(o Options) trace {
	s := Fig9Input(o)
	addrs, vals := s.EBERefs()
	refs := make([]multinode.Ref, len(addrs))
	var maxA mem.Addr
	for i := range addrs {
		a := addrs[i] - s.YBase
		refs[i] = multinode.Ref{Addr: a, Val: vals[i]}
		if a > maxA {
			maxA = a
		}
	}
	return trace{name: "spas", kind: mem.AddF64, refs: refs, span: maxA + 1}
}

// tracePointOut is one Figure 13 point's rendered throughput plus (when
// collecting) the system's performance-counter snapshot and span report.
type tracePointOut struct {
	cell  string
	snap  stats.Snapshot
	rep   span.Report
	label string
}

// runTracePoint replays one trace on one configuration and node count,
// returning GB/s. The final memory is checked against the trace's
// sequential sum after the counter and span snapshots are taken.
func runTracePoint(o Options, tr trace, tc traceConfig, nodes int) tracePointOut {
	ownerSpan := (tr.span/mem.Addr(nodes) + mem.LineWords) &^ (mem.LineWords - 1)
	cfg := multinode.DefaultConfig(nodes, tc.bandwidth, ownerSpan)
	cfg.Topology = tc.topo
	cfg.LegacyStepping = o.Legacy
	cfg.Faults = o.Faults
	s := multinode.New(cfg, tr.kind)
	sp := o.newTracer()
	s.SetSpanTracer(sp)
	out := tracePointOut{cell: fmt.Sprintf("%.2f", s.RunTrace(tr.refs).GBps())}
	if o.CollectStats {
		out.snap = s.StatsSnapshot()
	}
	if o.CollectSpans {
		out.rep = spanReport(sp)
		out.label = fmt.Sprintf("%s nodes=%d", tc.label, nodes)
	}
	if err := s.Verify(tr.refs); err != nil {
		panic(fmt.Sprintf("exp: fig13 %s nodes=%d failed verification: %v", tc.label, nodes, err))
	}
	return out
}

// Fig13 reproduces Figure 13: multi-node scatter-add throughput (GB/s) for
// 1-8 nodes across the four traces and their network/combining
// configurations.
func Fig13(o Options) Table { return o.checkpointed("fig13", fig13) }

func fig13(o Options) Table {
	t := Table{
		Title:  "Figure 13: multi-node scatter-add bandwidth (GB/s) vs node count",
		Header: []string{"config", "1", "2", "4", "8"},
		Notes: []string{
			"paper: wide scales perfectly at high BW, is network-bound at low BW (combining does not help);",
			"narrow: high BW scales 7.1x, low BW flat, low BW + combining scales 5.7x;",
			"mole/spas: combining helps, high BW improves scaling further",
		},
	}
	n := o.scaled(65536)
	// The four traces are independent to build (mole and spas regenerate the
	// Figure 9/10 workloads, which dominates); fan the construction out too.
	builders := []struct {
		name  string
		build func() trace
	}{
		{"narrow", func() trace { return histTrace("narrow", n, 256, o.seed(0xF16_13)) }},
		{"wide", func() trace { return histTrace("wide", n, 1<<20, o.seed(0xF16_13+1)) }},
		{"mole", func() trace { return moleTrace(o) }},
		{"spas", func() trace { return spasTrace(o) }},
	}
	built := mapN(o, len(builders), func(i int) trace { return builders[i].build() })
	traces := make(map[string]trace, len(built))
	for i, tr := range built {
		traces[builders[i].name] = tr
	}
	lines := []struct {
		trace string
		cfg   traceConfig
	}{
		{"narrow", traceConfig{"narrow-high", 8, multinode.Flat()}},
		{"narrow", traceConfig{"narrow-low", 1, multinode.Flat()}},
		{"narrow", traceConfig{"narrow-low-comb", 1, multinode.FlatCombining()}},
		{"wide", traceConfig{"wide-high", 8, multinode.Flat()}},
		{"wide", traceConfig{"wide-low", 1, multinode.Flat()}},
		{"wide", traceConfig{"wide-low-comb", 1, multinode.FlatCombining()}},
		{"mole", traceConfig{"mole-low-comb", 1, multinode.FlatCombining()}},
		{"mole", traceConfig{"mole-high-comb", 8, multinode.FlatCombining()}},
		{"spas", traceConfig{"spas-low-comb", 1, multinode.FlatCombining()}},
		{"spas", traceConfig{"spas-high-comb", 8, multinode.FlatCombining()}},
	}
	// Every (line, node-count) point builds its own multinode.System; the
	// trace reference streams are shared read-only across points.
	nodeCounts := []int{1, 2, 4, 8}
	points := mapN(o, len(lines)*len(nodeCounts), func(i int) tracePointOut {
		ln := lines[i/len(nodeCounts)]
		nodes := nodeCounts[i%len(nodeCounts)]
		return runTracePoint(o, traces[ln.trace], ln.cfg, nodes)
	})
	for r, ln := range lines {
		row := []string{ln.cfg.label}
		for c := 0; c < len(nodeCounts); c++ {
			row = append(row, points[r*len(nodeCounts)+c].cell)
		}
		t.Rows = append(t.Rows, row)
	}
	if o.CollectSpans {
		for _, p := range points {
			t.Spans = append(t.Spans, SpanRow{Label: p.label, Report: p.rep})
		}
	}
	if o.CollectStats {
		snaps := make([]stats.Snapshot, len(points))
		for i, p := range points {
			snaps[i] = p.snap
		}
		t.Counters = stats.MergeAll(snaps)
	}
	return t
}

package exp

import (
	"fmt"

	"scatteradd/internal/mem"
	"scatteradd/internal/multinode"
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

// ownerSpan returns the line-aligned block of the trace's index space each
// of nodes owners holds.
func (tr trace) ownerSpan(nodes int) mem.Addr {
	return (tr.span/mem.Addr(nodes) + mem.LineWords) &^ (mem.LineWords - 1)
}

// replay is the multi-node point: it replays tr on the system cfg
// describes, for point "name nodes=N" of figure fig, and returns the
// replay's Result and point record. The final memory is checked against the
// trace's sequential sum after the record is taken.
func (tr trace) replay(o Options, fig, name string, cfg multinode.Config) (multinode.Result, pointRecord) {
	s, sp := o.newSystem(cfg, tr.kind)
	res := s.RunTrace(tr.refs)
	label := fmt.Sprintf("%s nodes=%d", name, cfg.Nodes)
	p := o.record(label, s, sp)
	if err := s.Verify(tr.refs); err != nil {
		panic(fmt.Sprintf("exp: %s %s failed verification: %v", fig, label, err))
	}
	return res, p
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
	res := runPoints(o, &t, len(lines)*len(nodeCounts), func(i int) (multinode.Result, pointRecord) {
		ln := lines[i/len(nodeCounts)]
		tr := traces[ln.trace]
		nodes := nodeCounts[i%len(nodeCounts)]
		cfg := multinode.DefaultConfig(nodes, ln.cfg.bandwidth, tr.ownerSpan(nodes))
		cfg.Topology = ln.cfg.topo
		return tr.replay(o, "fig13", ln.cfg.label, cfg)
	})
	for r, ln := range lines {
		row := []string{ln.cfg.label}
		for c := 0; c < len(nodeCounts); c++ {
			row = append(row, fmt.Sprintf("%.2f", res[r*len(nodeCounts)+c].GBps()))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

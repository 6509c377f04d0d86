package exp

import (
	"fmt"

	"scatteradd/internal/multinode"
)

// This file adds the interconnect scale-out family (Figure 14): the paper
// stops at 8 nodes on one crossbar, and this figure asks what the reduction
// looks like when the machine keeps growing — 16 to 1024 nodes — on a flat
// crossbar, a k-ary tree of small switches, and a 2D mesh, with and without
// Ultracomputer-style in-switch combining of same-address scatter-adds. The
// workload is a deliberately hot histogram (a few bins per node), the
// regime where the root of a reduction tree melts first and in-network
// combining pays.

// fig14Nodes are the figure's machine sizes.
var fig14Nodes = []int{16, 64, 256, 1024}

// fig14Configs names the interconnect configurations swept, in row order.
var fig14Configs = []string{"flat", "tree", "tree+comb", "mesh", "mesh+comb"}

// fig14Metrics are the per-configuration rows: throughput, total cycles, and
// the fabric counters the scale-out argument is about.
var fig14Metrics = []string{"gb/s", "cycles", "root-pkts", "hops", "combined"}

// scaleConfig is the system of one Fig 14 point: the hot histogram on one
// interconnect at one size. The per-node machine is trimmed (small cache, 2
// DRAM channels) so the kilo-node points stay simulable; every
// configuration shares the identical node, so the columns differ only by
// interconnect.
func scaleConfig(o Options, tr trace, name string, nodes int) multinode.Config {
	topo, err := multinode.ParseTopology(name, o.FanIn)
	if err != nil {
		panic(fmt.Sprintf("exp: fig14 config %q: %v", name, err))
	}
	cfg := multinode.DefaultConfig(nodes, 1, tr.ownerSpan(nodes))
	cfg.Topology = topo
	cfg.Cache.Banks = 2
	cfg.Cache.TotalLines = 256
	cfg.DRAM.Channels = 2
	cfg.DRAM.BanksPerChannel = 4
	// The default wire depth scales with the port count; a kilo-port flat
	// crossbar doesn't need megabytes of modeled wire.
	cfg.Net.WireDepth = 64
	return cfg
}

// scaleCells renders one point's column, indexed like fig14Metrics.
func scaleCells(res multinode.Result) []string {
	return []string{
		fmt.Sprintf("%.2f", res.GBps()),
		d(res.Cycles),
		d(res.NetStats.RootPkts),
		d(res.NetStats.Hops),
		d(res.NetStats.Combined),
	}
}

// fig14ConfigList resolves Options.Topology to the configurations swept.
func fig14ConfigList(o Options) []string {
	if o.Topology == "" {
		return fig14Configs
	}
	if _, err := multinode.ParseTopology(o.Topology, o.FanIn); err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return []string{o.Topology}
}

// Fig14 is the interconnect scale-out family: hot-histogram scatter-add
// bandwidth and fabric traffic from 16 to 1024 nodes, flat crossbar vs
// k-ary tree vs 2D mesh, in-switch combining on and off.
func Fig14(o Options) Table { return o.checkpointed("fig14", fig14) }

func fig14(o Options) Table {
	configs := fig14ConfigList(o)
	t := Table{
		Title:  "Figure 14: interconnect scale-out on a hot histogram (16-1024 nodes)",
		Header: append([]string{"config", "metric"}, mapStr(fig14Nodes)...),
		Notes: []string{
			"hot histogram: 4096 bins spread across all nodes (a few per node at 1024);",
			"root-pkts counts packets crossing the fabric's bisection/root link;",
			"in-switch combining merges same-address scatter-adds at every hop, so",
			"root traffic shrinks as the tree deepens while flat stays linear in refs",
		},
	}
	// Keep the heat constant under -scale: ~64 references per bin at any
	// size (4096 bins at the full 256K references), so the combining windows
	// see the same collision pressure the full figure argues from.
	n := o.scaled(1 << 18)
	rng := n / 64
	if rng < 256 {
		rng = 256
	}
	tr := histTrace("hot", n, rng, o.seed(0xF16_14))
	res := runPoints(o, &t, len(configs)*len(fig14Nodes), func(i int) (multinode.Result, pointRecord) {
		name := configs[i/len(fig14Nodes)]
		return tr.replay(o, "fig14", name, scaleConfig(o, tr, name, fig14Nodes[i%len(fig14Nodes)]))
	})
	for r, name := range configs {
		for m, metric := range fig14Metrics {
			row := []string{name, metric}
			for c := range fig14Nodes {
				row = append(row, scaleCells(res[r*len(fig14Nodes)+c])[m])
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// mapStr renders an int slice as header cells.
func mapStr(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%d", x)
	}
	return out
}

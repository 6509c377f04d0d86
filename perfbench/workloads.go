package main

import (
	"fmt"
	"math"

	"scatteradd/internal/apps"
	"scatteradd/internal/fault"
	"scatteradd/internal/machine"
	"scatteradd/internal/mem"
	"scatteradd/internal/multinode"
	"scatteradd/internal/workload"
)

// workloadNames lists the workloads in the order BENCHMARK.json declares
// them. Why each exists is recorded in METRICS.md.
var workloadNames = []string{"paper", "scaleout", "oracle"}

// builder returns the function that generates every input of the named
// workload from a seed and binds each to the simulation that consumes it.
func builder(name string) (func(*gen) []sim, error) {
	switch name {
	case "paper":
		return func(g *gen) []sim { return paperSims(g, machineConfig(false)) }, nil
	case "scaleout":
		return scaleoutSims, nil
	case "oracle":
		return oracleSims, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// gen derives every input of a workload from the benchmark seed; salt
// separates the inputs so that no two share a random stream. Each
// generating call is recorded as a workload.gen span when tr is non-nil.
type gen struct {
	seed uint64
	tr   *tracer
}

// inputSeed mixes the workload seed with a per-input salt (splitmix64).
func (g *gen) inputSeed(salt uint64) uint64 {
	z := g.seed*0x9e3779b97f4a7c15 + salt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// timed runs one input-generating call inside a workload.gen span.
func timed[T any](g *gen, f func() T) T {
	sp := g.tr.begin(spanGen)
	defer g.tr.end(sp)
	return f()
}

func (g *gen) histogram(n, rng int, salt uint64) *apps.Histogram {
	return timed(g, func() *apps.Histogram { return apps.NewHistogram(n, rng, g.inputSeed(salt)) })
}

func (g *gen) spmv(nx, ny, nz int, salt uint64) *apps.SpMV {
	return timed(g, func() *apps.SpMV { return apps.NewSpMV(nx, ny, nz, g.inputSeed(salt)) })
}

func (g *gen) molDyn(nMol int, cutoff float64, salt uint64) *apps.MolDyn {
	return timed(g, func() *apps.MolDyn { return apps.NewMolDyn(nMol, cutoff, g.inputSeed(salt)) })
}

// machineConfig is the Table 1 machine, sequential (one bank-cluster
// shard), stepped by fast-forward unless oracle selects per-cycle stepping
// with the default chaos fault mix.
func machineConfig(oracle bool) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Shards = 1
	if oracle {
		cfg.LegacyStepping = true
		cfg.Faults = fault.DefaultChaos()
	}
	return cfg
}

// sensitivityConfig is the §4.4 machine behind Figs 11-12: no cache, one
// scatter-add unit in front of a uniform memory.
func sensitivityConfig(base machine.Config, entries, fuLat, memLat, interval int) machine.Config {
	cfg := base
	cfg.SA.Entries = entries
	cfg.SA.FULatency = fuLat
	cfg.SA.InQDepth = 16
	cfg.UniformMem = &machine.UniformMemConfig{Latency: memLat, Interval: interval}
	return cfg
}

// Variant runners: the public apps entry points each simulation calls.
func histHW(h *apps.Histogram) func(*machine.Machine) machine.Result {
	return func(m *machine.Machine) machine.Result { return h.RunHW(m) }
}

func histSortScan(h *apps.Histogram) func(*machine.Machine) machine.Result {
	return func(m *machine.Machine) machine.Result { return h.RunSortScan(m, 0) }
}

func histPrivatize(h *apps.Histogram) func(*machine.Machine) machine.Result {
	return func(m *machine.Machine) machine.Result { return h.RunPrivatization(m, 0) }
}

// paperSims is the single-node simulation set behind Figs 6-12 at the
// CLI's -scale 8 sizes, on the machine cfg.
func paperSims(g *gen, cfg machine.Config) []sim {
	var sims []sim
	add := func(name string, soft bool, cfg machine.Config, in verifier, run func(*machine.Machine) machine.Result) {
		sims = append(sims, &singleSim{name: name, soft: soft, cfg: cfg, in: in, run: run})
	}
	// Fig 6: input lengths 256-1024 over 2,048 bins, HW vs sort+scan.
	for _, n := range []int{256, 512, 1024} {
		h := g.histogram(n, 2048, 0x600+uint64(n))
		add(fmt.Sprintf("fig6 hw n=%d", n), false, cfg, h, histHW(h))
		add(fmt.Sprintf("fig6 sortscan n=%d", n), true, cfg, h, histSortScan(h))
	}
	// Fig 7: 4,096 inputs over ranges 1 to 4M words, crossing the 1 MB
	// stream cache (128K words) at the top.
	for _, rng := range []int{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20} {
		h := g.histogram(4096, rng, 0x700+uint64(rng))
		add(fmt.Sprintf("fig7 hw range=%d", rng), false, cfg, h, histHW(h))
		add(fmt.Sprintf("fig7 sortscan range=%d", rng), true, cfg, h, histSortScan(h))
	}
	// Fig 8: privatization vs HW.
	for _, n := range []int{128, 4096} {
		for _, rng := range []int{128, 512, 2048, 8192} {
			h := g.histogram(n, rng, 0x800+uint64(rng*n))
			add(fmt.Sprintf("fig8 hw n=%d range=%d", n, rng), false, cfg, h, histHW(h))
			add(fmt.Sprintf("fig8 privatize n=%d range=%d", n, rng), true, cfg, h, histPrivatize(h))
		}
	}
	// Fig 9: SpMV CSR (gathers) beside EBE with SW and HW scatter-add.
	s := g.spmv(4, 4, 3, 0x900)
	add("fig9 csr", false, cfg, s, func(m *machine.Machine) machine.Result { return s.RunCSR(m) })
	add("fig9 ebe-sw", true, cfg, s, func(m *machine.Machine) machine.Result { return s.RunEBESW(m, 0) })
	add("fig9 ebe-hw", false, cfg, s, func(m *machine.Machine) machine.Result { return s.RunEBEHW(m) })
	// Fig 10: molecular dynamics without SA, with SW SA, with HW SA.
	md := g.molDyn(216, 6.0, 0xA00)
	add("fig10 no-sa", false, cfg, md, func(m *machine.Machine) machine.Result { return md.RunNoSA(m) })
	add("fig10 sw-sa", true, cfg, md, func(m *machine.Machine) machine.Result { return md.RunSWSA(m, 0) })
	add("fig10 hw-sa", false, cfg, md, func(m *machine.Machine) machine.Result { return md.RunHWSA(m) })
	// Figs 11-12: combining-store sensitivity on uniform memory, 64 inputs.
	css := []int{2, 4, 8, 16, 64}
	wide := g.histogram(64, 65536, 0xB00)
	for _, cs := range css {
		for _, memLat := range []int{8, 16, 64, 256} {
			add(fmt.Sprintf("fig11 cs=%d mem=%d", cs, memLat), false,
				sensitivityConfig(cfg, cs, 4, memLat, 2), wide, histHW(wide))
		}
		for _, fuLat := range []int{2, 8, 16} {
			add(fmt.Sprintf("fig11 cs=%d fu=%d", cs, fuLat), false,
				sensitivityConfig(cfg, cs, fuLat, 16, 2), wide, histHW(wide))
		}
	}
	narrow := g.histogram(64, 16, 0xC00)
	for _, cs := range css {
		for _, interval := range []int{1, 2, 4, 16} {
			for _, h := range []*apps.Histogram{narrow, wide} {
				add(fmt.Sprintf("fig12 cs=%d int=%d bins=%d", cs, interval, h.Range), false,
					sensitivityConfig(cfg, cs, 4, 16, interval), h, histHW(h))
			}
		}
	}
	return sims
}

// trace is one multi-node scatter-add reference stream with its functional
// reference: exact bin counts for integer traces, the summed trace values
// for floating-point ones.
type trace struct {
	name  string
	kind  mem.Kind
	refs  []multinode.Ref
	addrs []mem.Addr // every address the reference covers, 0..span-1
	wantI []int64
	wantF []float64
}

func indexSpan(n int) []mem.Addr {
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = mem.Addr(i)
	}
	return addrs
}

// histTrace is a histogram trace of n uniform indices over rng bins.
func (g *gen) histTrace(name string, n, rng int, salt uint64) *trace {
	return timed(g, func() *trace {
		idx := workload.UniformIndices(n, rng, g.inputSeed(salt))
		refs := make([]multinode.Ref, n)
		for i, x := range idx {
			refs[i] = multinode.Ref{Addr: mem.Addr(x), Val: mem.I64(1)}
		}
		return &trace{name: name, kind: mem.AddI64, refs: refs, addrs: indexSpan(rng),
			wantI: workload.HistogramReference(idx, rng)}
	})
}

// f64Trace rebases an application's scatter-add stream to address 0 and
// sums it sequentially for the reference.
func f64Trace(name string, addrs []mem.Addr, vals []mem.Word, base mem.Addr) *trace {
	refs := make([]multinode.Ref, len(addrs))
	var top mem.Addr
	for i, a := range addrs {
		refs[i] = multinode.Ref{Addr: a - base, Val: vals[i]}
		top = max(top, a-base)
	}
	want := make([]float64, top+1)
	for _, r := range refs {
		want[r.Addr] += mem.AsF64(r.Val)
	}
	return &trace{name: name, kind: mem.AddF64, refs: refs, addrs: indexSpan(len(want)), wantF: want}
}

// moleTrace is the molecular-dynamics force stream (§4.5 replays the first
// 590K references).
func (g *gen) moleTrace(nMol int, cutoff float64, salt uint64) *trace {
	md := g.molDyn(nMol, cutoff, salt)
	return timed(g, func() *trace {
		addrs, vals := md.SARefs()
		if len(addrs) > 590_000 {
			addrs, vals = addrs[:590_000], vals[:590_000]
		}
		return f64Trace("mole", addrs, vals, md.ForceBase)
	})
}

// spasTrace is the EBE SpMV scatter-add stream.
func (g *gen) spasTrace(nx, ny, nz int, salt uint64) *trace {
	s := g.spmv(nx, ny, nz, salt)
	return timed(g, func() *trace {
		addrs, vals := s.EBERefs()
		return f64Trace("spas", addrs, vals, s.YBase)
	})
}

// check compares the bins read back with ReadResult against the reference.
func (t *trace) check(got []mem.Word) error {
	for i, w := range got {
		if t.wantI != nil {
			if v := mem.AsI64(w); v != t.wantI[i] {
				return fmt.Errorf("%s: bin %d = %d, want %d", t.name, i, v, t.wantI[i])
			}
			continue
		}
		v, want := mem.AsF64(w), t.wantF[i]
		if math.Abs(v-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("%s: bin %d = %g, want %g", t.name, i, v, want)
		}
	}
	return nil
}

// ownerSpan block-partitions the trace's address space over the nodes, in
// whole lines, as Figs 13-14 do.
func ownerSpan(t *trace, nodes int) mem.Addr {
	return (mem.Addr(len(t.addrs))/mem.Addr(nodes) + mem.LineWords) &^ (mem.LineWords - 1)
}

// runConfig makes cfg sequential (one node shard) and, for the oracle,
// steps it per cycle under the default chaos fault mix.
func runConfig(cfg multinode.Config, oracle bool) multinode.Config {
	cfg.Shards = 1
	if oracle {
		cfg.LegacyStepping = true
		cfg.Faults = fault.DefaultChaos()
	}
	return cfg
}

// fig13Sim replays t on nodes Table 1 nodes over the flat crossbar at
// wordsPerCyc per port, with or without cache combining.
func fig13Sim(t *trace, wordsPerCyc int, comb bool, nodes int, oracle bool) *multiSim {
	cfg := multinode.DefaultConfig(nodes, wordsPerCyc, ownerSpan(t, nodes))
	cfg.Topology = multinode.Flat()
	label := "low"
	if wordsPerCyc > 1 {
		label = "high"
	}
	if comb {
		cfg.Topology = multinode.FlatCombining()
		label += "-comb"
	}
	return &multiSim{name: fmt.Sprintf("fig13 %s-%s nodes=%d", t.name, label, nodes),
		cfg: runConfig(cfg, oracle), t: t}
}

// fig14Sim replays the hot histogram on a Fig 14 interconnect, with the
// figure's trimmed per-node machine.
func fig14Sim(t *trace, topo string, nodes int, oracle bool) *multiSim {
	tp, err := multinode.ParseTopology(topo, 0)
	if err != nil {
		panic(err) // the topology names below are constants
	}
	cfg := multinode.DefaultConfig(nodes, 1, ownerSpan(t, nodes))
	cfg.Topology = tp
	cfg.Cache.Banks = 2
	cfg.Cache.TotalLines = 256
	cfg.DRAM.Channels = 2
	cfg.DRAM.BanksPerChannel = 4
	cfg.Net.WireDepth = 64
	return &multiSim{name: fmt.Sprintf("fig14 %s nodes=%d", topo, nodes),
		cfg: runConfig(cfg, oracle), t: t, mesh: tp.Kind == multinode.TopoMesh}
}

// Trace lengths of the multi-node figures at the CLI's -scale 16 sizes:
// Fig 13's histograms have 65536/16 references, and Fig 14's hot histogram
// has 2^18/16 references over n/64 bins, the figure's heat of 64 references
// per bin at every scale.
const (
	fig13HistRefs = 4096
	fig14HotRefs  = 16384
	fig14HotBins  = fig14HotRefs / 64
)

// scaleoutSims is the multi-node trace replay: Fig 13's four traces on 1-8
// nodes (the histograms at -scale 16 length, mole and spas from the same
// -scale 8 Fig 9-10 inputs as paper), and Fig 14's -scale 16 hot histogram
// at its two largest machine sizes.
func scaleoutSims(g *gen) []sim {
	narrow := g.histTrace("narrow", fig13HistRefs, 256, 0xD00)
	wide := g.histTrace("wide", fig13HistRefs, 1<<20, 0xD01)
	mole := g.moleTrace(216, 6.0, 0xD02)
	spas := g.spasTrace(4, 4, 3, 0xD03)
	hot := g.histTrace("hot", fig14HotRefs, fig14HotBins, 0xE00)
	var sims []sim
	for _, nodes := range []int{1, 2, 4, 8} {
		sims = append(sims,
			fig13Sim(narrow, 8, false, nodes, false),
			fig13Sim(narrow, 1, false, nodes, false),
			fig13Sim(narrow, 1, true, nodes, false),
			fig13Sim(wide, 8, false, nodes, false),
			fig13Sim(wide, 1, false, nodes, false),
			fig13Sim(wide, 1, true, nodes, false),
			fig13Sim(mole, 1, true, nodes, false),
			fig13Sim(mole, 8, true, nodes, false),
			fig13Sim(spas, 1, true, nodes, false),
			fig13Sim(spas, 8, true, nodes, false),
		)
	}
	for _, nodes := range []int{256, 1024} {
		for _, topo := range []string{"flat", "tree+comb", "mesh"} {
			sims = append(sims, fig14Sim(hot, topo, nodes, false))
		}
	}
	return sims
}

// oracleSims re-runs a few paper and scaleout points with per-cycle
// stepping under the default chaos fault mix.
func oracleSims(g *gen) []sim {
	cfg := machineConfig(true)
	h := g.histogram(4096, 65536, 0xF00)
	small := g.histogram(1024, 2048, 0xF01)
	s := g.spmv(4, 4, 3, 0xF02)
	md := g.molDyn(216, 6.0, 0xF03)
	sims := []sim{
		&singleSim{name: "oracle fig7 hw range=65536", cfg: cfg, in: h, run: histHW(h)},
		&singleSim{name: "oracle fig6 sortscan n=1024", soft: true, cfg: cfg, in: small, run: histSortScan(small)},
		&singleSim{name: "oracle fig8 privatize n=1024", soft: true, cfg: cfg, in: small, run: histPrivatize(small)},
		&singleSim{name: "oracle fig9 ebe-hw", cfg: cfg, in: s,
			run: func(m *machine.Machine) machine.Result { return s.RunEBEHW(m) }},
		&singleSim{name: "oracle fig10 hw-sa", cfg: cfg, in: md,
			run: func(m *machine.Machine) machine.Result { return md.RunHWSA(m) }},
		&singleSim{name: "oracle fig11 cs=8 mem=64", cfg: sensitivityConfig(cfg, 8, 4, 64, 2), in: h, run: histHW(h)},
		&singleSim{name: "oracle fig9 csr", cfg: cfg, in: s,
			run: func(m *machine.Machine) machine.Result { return s.RunCSR(m) }},
		&singleSim{name: "oracle fig10 sw-sa", soft: true, cfg: cfg, in: md,
			run: func(m *machine.Machine) machine.Result { return md.RunSWSA(m, 0) }},
	}
	narrow := g.histTrace("narrow", fig13HistRefs, 256, 0xF10)
	wide := g.histTrace("wide", fig13HistRefs, 1<<20, 0xF13)
	mole := g.moleTrace(216, 6.0, 0xF11)
	hot := g.histTrace("hot", fig14HotRefs, fig14HotBins, 0xF12)
	// The default mix degrades a node only after 64 combining-store faults,
	// more than a run this size meets; one point lowers the threshold so the
	// combining-to-direct fallback runs too.
	degrade := fig13Sim(wide, 1, true, 2, true)
	degrade.cfg.Faults.DegradeThreshold = 1
	degrade.name += " degrade-threshold=1"
	sims = append(sims,
		fig13Sim(narrow, 1, true, 4, true),
		degrade,
		fig13Sim(mole, 8, true, 8, true),
		fig14Sim(hot, "flat", 256, true),
		fig14Sim(hot, "tree+comb", 256, true),
		fig14Sim(hot, "mesh", 256, true),
	)
	return sims
}

// Command sabench runs a single evaluation application variant on the
// simulated machine and prints its metrics — the workload-driver
// counterpart of cmd/scatteradd's figure runners. It can also dump the
// memory-reference trace of the run.
//
// Usage:
//
//	sabench -app histogram -variant hw        -n 32768 -range 2048
//	sabench -app histogram -variant sortscan  -batch 256
//	sabench -app histogram -variant privatize
//	sabench -app histogram -variant overlap
//	sabench -app spmv      -variant csr|ebehw|ebesw
//	sabench -app moldyn    -variant nosa|hw|sw -mol 903 -cutoff 8
//
// Common flags: -trace FILE (dump the reference trace as CSV), -seed N.
//
// Multi-node replay: -nodes N (N > 1) replays the histogram's scatter-add
// reference stream on the N-node system instead of one machine, with
// -topology selecting the interconnect (flat, flat+comb, hypercube, tree,
// tree+comb, mesh, mesh+comb) and -fanin the tree switch fan-in. The bins
// are verified against the sequential reference either way.
//
// Request-lifecycle spans: -span-out FILE samples 1 in -span-rate memory
// operations and writes either a Perfetto/Chrome trace-event JSON
// (-span-format perfetto, load in ui.perfetto.dev) or a latency-attribution
// report (-span-format report). Profiling the simulator itself:
// -pprof-http ADDR, -cpuprofile/-memprofile FILE, -trace-out FILE.
package main

import (
	"flag"
	"fmt"
	"os"

	"scatteradd/internal/apps"
	"scatteradd/internal/machine"
	"scatteradd/internal/mem"
	"scatteradd/internal/multinode"
	"scatteradd/internal/prof"
	"scatteradd/internal/span"
	"scatteradd/internal/trace"
	"scatteradd/internal/workload"
)

// spanOpts carries the span-tracing flags.
type spanOpts struct {
	out    string
	format string
	rate   int
}

func main() {
	app := flag.String("app", "histogram", "histogram | spmv | moldyn")
	variant := flag.String("variant", "hw", "algorithm variant (see doc comment)")
	n := flag.Int("n", 32768, "histogram input length")
	rangeSize := flag.Int("range", 2048, "histogram index range")
	batch := flag.Int("batch", 0, "software sort batch (0 = default 256)")
	mol := flag.Int("mol", 903, "moldyn molecule count")
	cutoff := flag.Float64("cutoff", 8.0, "moldyn neighbor cutoff")
	seed := flag.Uint64("seed", 1, "workload seed")
	nodes := flag.Int("nodes", 1, "replay the histogram on an N-node system instead of one machine (N > 1)")
	topology := flag.String("topology", "flat", "interconnect for -nodes: flat, flat+comb, hypercube, tree, tree+comb, mesh, mesh+comb")
	fanin := flag.Int("fanin", 0, "tree switch fan-in for -nodes -topology tree* (0 = default 4)")
	traceOut := flag.String("trace", "", "write the memory-reference trace CSV here")
	spanOut := flag.String("span-out", "", "write sampled request-lifecycle spans here")
	spanFormat := flag.String("span-format", "perfetto", "span output format: perfetto | report")
	spanRate := flag.Int("span-rate", 16, "sample 1 in N issued memory operations for -span-out")
	profCfg := prof.Flags(flag.CommandLine)
	flag.Parse()
	if err := checkFlags(*n, *rangeSize, *mol, *nodes, *topology, *fanin); err != nil {
		fmt.Fprintf(os.Stderr, "sabench: %v\n", err)
		os.Exit(2)
	}

	sess, err := prof.Start(*profCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sabench: %v\n", err)
		os.Exit(1)
	}
	if addr := sess.HTTPAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "sabench: pprof at http://%s/debug/pprof/\n", addr)
	}
	sp := spanOpts{out: *spanOut, format: *spanFormat, rate: *spanRate}
	if *nodes > 1 {
		if err := runMultiNode(*app, *nodes, *topology, *fanin, *n, *rangeSize, *seed); err != nil {
			sess.Stop()
			fmt.Fprintf(os.Stderr, "sabench: %v\n", err)
			os.Exit(1)
		}
		if err := sess.Stop(); err != nil {
			fmt.Fprintf(os.Stderr, "sabench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*app, *variant, *n, *rangeSize, *batch, *mol, *cutoff, *seed, *traceOut, sp); err != nil {
		sess.Stop()
		fmt.Fprintf(os.Stderr, "sabench: %v\n", err)
		os.Exit(1)
	}
	if err := sess.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "sabench: %v\n", err)
		os.Exit(1)
	}
}

// checkFlags rejects flag values that no run can use; main exits 2 on its
// error. A multi-node topology must connect the node count.
func checkFlags(n, rangeSize, mol, nodes int, topology string, fanin int) error {
	switch {
	case n < 0:
		return fmt.Errorf("-n %d invalid (want >= 0)", n)
	case rangeSize < 1:
		return fmt.Errorf("-range %d invalid (want >= 1)", rangeSize)
	case mol < 1:
		return fmt.Errorf("-mol %d invalid (want >= 1)", mol)
	case nodes <= 1:
		return nil
	}
	topo, err := multinode.ParseTopology(topology, fanin)
	if err != nil {
		return err
	}
	return multinode.CheckNodeCount(topo, nodes)
}

func run(app, variant string, n, rangeSize, batch, mol int, cutoff float64, seed uint64, traceOut string, sp spanOpts) error {
	m := machine.New(machine.DefaultConfig())
	rec := trace.NewRecorder(0)
	if traceOut != "" {
		m.SetTracer(rec.Observe)
	}
	var spanTr *span.Tracer
	if sp.out != "" {
		if sp.format != "perfetto" && sp.format != "report" {
			return fmt.Errorf("span format %q (want perfetto, report)", sp.format)
		}
		if sp.rate < 1 {
			return fmt.Errorf("span rate %d (want >= 1)", sp.rate)
		}
		spanTr = span.New(sp.rate)
		m.SetSpanTracer(spanTr)
	}

	type verifier interface{ Verify(*machine.Machine) error }
	var res machine.Result
	var v verifier
	var desc string

	switch app {
	case "histogram":
		h := apps.NewHistogram(n, rangeSize, seed)
		v, desc = h, fmt.Sprintf("histogram n=%d range=%d", n, rangeSize)
		switch variant {
		case "hw":
			res = h.RunHW(m)
		case "overlap":
			res = h.RunHWOverlapped(m, 0)
		case "sortscan":
			res = h.RunSortScan(m, batch)
		case "privatize":
			res = h.RunPrivatization(m, 0)
		default:
			return fmt.Errorf("histogram variant %q (want hw, overlap, sortscan, privatize)", variant)
		}
	case "spmv":
		s := apps.NewSpMV(8, 8, 5, seed)
		v = s
		desc = fmt.Sprintf("spmv %dx%d nnz=%d", s.Mesh.NumNodes, s.Mesh.NumNodes, s.CSR.NNZ())
		switch variant {
		case "csr":
			res = s.RunCSR(m)
		case "ebehw":
			res = s.RunEBEHW(m)
		case "ebesw":
			res = s.RunEBESW(m, batch)
		default:
			return fmt.Errorf("spmv variant %q (want csr, ebehw, ebesw)", variant)
		}
	case "moldyn":
		md := apps.NewMolDyn(mol, cutoff, seed)
		v = md
		desc = fmt.Sprintf("moldyn mol=%d pairs=%d sa-refs=%d", md.W.NumMol, len(md.Pairs), md.NumSARefs())
		switch variant {
		case "nosa":
			res = md.RunNoSA(m)
		case "hw":
			res = md.RunHWSA(m)
		case "sw":
			res = md.RunSWSA(m, batch)
		default:
			return fmt.Errorf("moldyn variant %q (want nosa, hw, sw)", variant)
		}
	default:
		return fmt.Errorf("unknown app %q (want histogram, spmv, moldyn)", app)
	}

	if err := v.Verify(m); err != nil {
		return fmt.Errorf("result verification FAILED: %w", err)
	}

	fmt.Printf("%s, variant %s\n", desc, variant)
	fmt.Printf("  cycles        %12d  (%.1f us at %g GHz)\n",
		res.Cycles, machine.CyclesToMicros(res.Cycles), machine.ClockGHz)
	fmt.Printf("  fp ops        %12d\n", res.FPOps)
	fmt.Printf("  mem refs      %12d\n", res.MemRefs)
	sa, cs, ds := m.ComponentStats()
	fmt.Printf("  scatter-add   %12d requests, %d combined, %d FU ops, %d stall cycles\n",
		sa.SARequests, sa.Combined, sa.FUOps, sa.StallFull)
	fmt.Printf("  cache         %12d hits, %d misses, %d write-backs\n", cs.Hits, cs.Misses, cs.WriteBacks)
	fmt.Printf("  dram          %12d line reads, %d line writes, %.2f row-hit rate\n",
		ds.Reads, ds.Writes, rowHitRate(ds.RowHits, ds.RowMisses))
	fmt.Printf("  verified OK against the sequential reference\n")

	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, rec.Records()); err != nil {
			return err
		}
		fmt.Printf("  trace         %d references -> %s (%s)\n",
			len(rec.Records()), traceOut, trace.Summarize(rec.Records()))
	}
	if spanTr != nil {
		if err := writeSpans(spanTr, sp, fmt.Sprintf("%s/%s", app, variant)); err != nil {
			return err
		}
	}
	return nil
}

// runMultiNode replays the histogram's scatter-add reference stream on an
// N-node system with the chosen interconnect, verifies the bins against the
// sequential reference, and prints the fabric traffic counters.
func runMultiNode(app string, nodes int, topoName string, fanIn, n, rangeSize int, seed uint64) error {
	if app != "histogram" {
		return fmt.Errorf("-nodes replay supports -app histogram only (got %q)", app)
	}
	topo, err := multinode.ParseTopology(topoName, fanIn)
	if err != nil {
		return err
	}
	idx := workload.UniformIndices(n, rangeSize, seed)
	refs := make([]multinode.Ref, n)
	for i, x := range idx {
		refs[i] = multinode.Ref{Addr: mem.Addr(x), Val: mem.I64(1)}
	}
	ownerSpan := (mem.Addr(rangeSize)/mem.Addr(nodes) + mem.LineWords) &^ (mem.LineWords - 1)
	cfg := multinode.DefaultConfig(nodes, 1, ownerSpan)
	cfg.Topology = topo
	s := multinode.New(cfg, mem.AddI64)
	res := s.RunTrace(refs)
	if err := s.Verify(refs); err != nil {
		return fmt.Errorf("result verification FAILED: %v", err)
	}
	fmt.Printf("histogram n=%d range=%d, %d nodes, topology %s\n", n, rangeSize, nodes, topoName)
	fmt.Printf("  cycles        %12d  (%.1f us at %g GHz)\n",
		res.Cycles, machine.CyclesToMicros(res.Cycles), machine.ClockGHz)
	fmt.Printf("  throughput    %12.2f GB/s\n", res.GBps())
	ns := res.NetStats
	fmt.Printf("  fabric        %12d sent, %d delivered, %d hops, %d root-pkts, %d combined\n",
		ns.Sent, ns.Delivered, ns.Hops, ns.RootPkts, ns.Combined)
	if res.SumBacks > 0 {
		fmt.Printf("  sum-backs     %12d partial lines\n", res.SumBacks)
	}
	fmt.Printf("  verified OK against the sequential reference\n")
	return nil
}

// writeSpans exports the sampled request lifecycles in the chosen format.
func writeSpans(tr *span.Tracer, sp spanOpts, name string) error {
	f, err := os.Create(sp.out)
	if err != nil {
		return err
	}
	switch sp.format {
	case "perfetto":
		err = span.WriteTraceEvents(f, []span.Process{tr.Process(0, name)})
	case "report":
		rep := span.Aggregate(tr.Ops())
		header := fmt.Sprintf("%s: %d sampled ops (1 in %d), mean %.1f cycles, p50 %d, p99 %d\n",
			name, rep.Ops, tr.Rate(), rep.Mean, rep.P50, rep.P99)
		_, err = fmt.Fprintf(f, "%s%s", header, rep.Format("  "))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("  spans         %d sampled ops (1 in %d) -> %s (%s)\n",
		len(tr.Ops()), tr.Rate(), sp.out, sp.format)
	return nil
}

func rowHitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

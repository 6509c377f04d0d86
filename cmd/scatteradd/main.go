// Command scatteradd regenerates the tables and figures of "Scatter-Add in
// Data Parallel Architectures" (HPCA 2005) on the simulated machine.
//
// Usage:
//
//	scatteradd [flags] <experiment>...
//
// Experiments: table1, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13,
// fig14, ablations, all.
//
// Flags:
//
//	-scale N      divide dataset sizes by N for a quick run (default 1 = paper scale)
//	-jobs N       run up to N independent simulations concurrently (default NumCPU;
//	              1 = sequential; output is byte-identical for every N). Each
//	              simulation runs on one goroutine, so -jobs is the only
//	              parallelism.
//	-seed N       perturb every workload seed (default 0 = the paper's fixed seeds)
//	-csv          emit CSV instead of aligned text
//	-stats        append a hardware performance-counter appendix to each table
//	-spans        append a sampled request-lifecycle latency-attribution
//	              appendix to each table (see -span-rate)
//	-span-rate N  sample 1 in N issued memory operations for -spans (default 16)
//	-faults X     inject the default chaos fault mix scaled by X in [0,1]
//	              (0 = off; 1 = full chaos; results stay bit-exact — faults
//	              cost cycles, never correctness)
//	-fault-seed N override the fault injector's seed (with -faults)
//	-checkpoint D snapshot each completed figure under directory D and
//	              resume an interrupted sweep from the snapshots
//	-topology T   restrict fig14 to one interconnect configuration: flat,
//	              flat+comb, hypercube, tree, tree+comb, mesh or mesh+comb
//	              (default = sweep flat, tree, tree+comb, mesh, mesh+comb)
//	-fanin N      switch fan-in for fig14 tree topologies (default 0 = 4)
//
// Profiling the simulator itself: -pprof-http ADDR serves net/http/pprof,
// -cpuprofile/-memprofile FILE write pprof profiles, -trace-out FILE writes
// a runtime execution trace (go tool trace).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"scatteradd"
	"scatteradd/internal/exp"
	"scatteradd/internal/prof"
)

func main() {
	scale := flag.Int("scale", 1, "divide dataset sizes by N (1 = full paper scale)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "max concurrent simulations (1 = sequential)")
	seed := flag.Uint64("seed", 0, "perturb workload seeds (0 = the paper's fixed seeds)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	doPlot := flag.Bool("plot", false, "also render ASCII charts of the figures")
	withStats := flag.Bool("stats", false, "append a hardware performance-counter appendix to each table")
	withSpans := flag.Bool("spans", false, "append a sampled request-lifecycle latency appendix to each table")
	spanRate := flag.Int("span-rate", 16, "sample 1 in N issued memory operations for -spans")
	legacy := flag.Bool("legacy", false, "per-cycle engine stepping instead of quiescence fast-forward (identical output, slower)")
	faults := flag.Float64("faults", 0, "inject the default chaos fault mix scaled by X in [0,1] (0 = off)")
	faultSeed := flag.Uint64("fault-seed", 0, "override the fault injector seed (0 = default; needs -faults)")
	checkpoint := flag.String("checkpoint", "", "directory for figure checkpoints (resume interrupted sweeps)")
	topology := flag.String("topology", "", "restrict fig14 to one interconnect configuration (flat, flat+comb, hypercube, tree, tree+comb, mesh, mesh+comb)")
	fanin := flag.Int("fanin", 0, "switch fan-in for fig14 tree topologies (0 = default 4)")
	profCfg := prof.Flags(flag.CommandLine)
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	if err := checkFlags(*scale, *jobs, *spanRate, *faults, *fanin, *topology); err != nil {
		fmt.Fprintf(os.Stderr, "scatteradd: %v\n", err)
		os.Exit(2)
	}
	var fc scatteradd.FaultConfig
	if *faults > 0 {
		fc = scatteradd.DefaultChaosFaults().Scale(*faults)
		if *faultSeed != 0 {
			fc.Seed = *faultSeed
		}
	}
	sess, err := prof.Start(*profCfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scatteradd: %v\n", err)
		os.Exit(1)
	}
	if addr := sess.HTTPAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "scatteradd: pprof at http://%s/debug/pprof/\n", addr)
	}
	o := scatteradd.ExpOptions{
		Scale: *scale, Jobs: *jobs, Seed: *seed,
		CollectStats: *withStats, CollectSpans: *withSpans, SpanRate: *spanRate,
		Legacy: *legacy,
		Faults: fc, CheckpointDir: *checkpoint,
		Topology: *topology, FanIn: *fanin,
	}
	for _, name := range flag.Args() {
		if err := run(name, o, *csv, *doPlot); err != nil {
			sess.Stop()
			fmt.Fprintf(os.Stderr, "scatteradd: %v\n", err)
			os.Exit(1)
		}
	}
	if err := sess.Stop(); err != nil {
		fmt.Fprintf(os.Stderr, "scatteradd: %v\n", err)
		os.Exit(1)
	}
}

// checkFlags rejects flag values that no run can use; main exits 2 on its
// error.
func checkFlags(scale, jobs, spanRate int, faults float64, fanin int, topology string) error {
	switch {
	case scale < 1:
		return fmt.Errorf("-scale %d invalid (want >= 1)", scale)
	case jobs < 1:
		return fmt.Errorf("-jobs %d invalid (want >= 1)", jobs)
	case spanRate < 1:
		return fmt.Errorf("-span-rate %d invalid (want >= 1)", spanRate)
	case !(faults >= 0 && faults <= 1): // also rejects NaN
		return fmt.Errorf("-faults %g invalid (want 0..1)", faults)
	case fanin != 0 && fanin < 2:
		return fmt.Errorf("-fanin %d invalid (want 0 or >= 2)", fanin)
	}
	if topology != "" {
		if _, err := scatteradd.ParseTopology(topology, fanin); err != nil {
			return err
		}
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: scatteradd [-scale N] [-jobs N] [-seed N] [-csv] [-stats] [-spans] [-faults X] [-checkpoint DIR] <experiment>...

experiments:
  table1           machine parameters (paper Table 1)
  fig6 .. fig13    regenerate the corresponding figure
  fig14            interconnect scale-out extension (see -topology, -fanin)
  ablations        design-choice studies beyond the paper
  report           regenerate everything + check the paper's claims (markdown)
  all              everything above

`)
	flag.PrintDefaults()
}

func run(name string, o scatteradd.ExpOptions, csv, doPlot bool) error {
	emit := func(t scatteradd.ExpTable) {
		if csv {
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		} else {
			fmt.Println(t)
		}
	}
	figure := func(f exp.Figure) {
		start := time.Now()
		t := f.Gen(o)
		emit(t)
		if doPlot {
			fmt.Println(exp.Plot(f.Number, t))
		}
		if !csv {
			fmt.Printf("(regenerated in %.1fs)\n\n", time.Since(start).Seconds())
		}
	}
	switch name {
	case "table1":
		emit(scatteradd.Table1())
	case "ablations":
		for _, t := range scatteradd.Ablations(o) {
			emit(t)
		}
	case "report":
		md, checks := scatteradd.Report(o)
		fmt.Print(md)
		failed := 0
		for _, c := range checks {
			if !c.Pass {
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d claim checks failed", failed, len(checks))
		}
		fmt.Fprintf(os.Stderr, "all %d claim checks passed\n", len(checks))
	case "all":
		emit(scatteradd.Table1())
		for _, f := range exp.Figures {
			figure(f)
		}
		for _, t := range scatteradd.Ablations(o) {
			emit(t)
		}
	default:
		f, ok := exp.LookupFigure(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q (want table1, fig6..fig14, ablations, all)", name)
		}
		figure(f)
	}
	return nil
}

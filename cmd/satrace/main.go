// Command satrace generates and inspects scatter-add reference traces —
// the inputs of the paper's multi-node study (§4.5). It can dump a
// workload's scatter-add stream as CSV, print its locality summary,
// summarize an existing trace file, or replay a trace on the Table 1
// machine and export a performance-counter timeline.
//
// Usage:
//
//	satrace [flags] gen        generate a trace and write CSV to -out (or stdout)
//	satrace [flags] summary    generate a trace and print its locality summary
//	satrace -in FILE summary   summarize an existing CSV trace
//	satrace [flags] stats      replay the trace on the Table 1 machine and
//	                           export the counter timeline to -out (or stdout)
//
// Flags:
//
//	-workload  narrow | wide | mole | spas   (default narrow)
//	-n         reference count for the histogram workloads (default 65536)
//	-out/-in   file paths (default stdout/none)
//	-gzip      gzip-compress gen/stats output
//	-interval  timeline sample interval in cycles for stats (default 1024)
//	-format    timeline format for stats: csv | jsonl (default csv)
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"

	"scatteradd/internal/apps"
	"scatteradd/internal/machine"
	"scatteradd/internal/mem"
	"scatteradd/internal/trace"
	"scatteradd/internal/workload"
)

func main() {
	wl := flag.String("workload", "narrow", "narrow | wide | mole | spas")
	n := flag.Int("n", 65536, "reference count for the histogram workloads")
	out := flag.String("out", "", "output file for gen/stats (default stdout)")
	in := flag.String("in", "", "existing trace CSV for summary/stats")
	gz := flag.Bool("gzip", false, "gzip-compress gen/stats output")
	interval := flag.Uint64("interval", 1024, "stats timeline sample interval in cycles")
	format := flag.String("format", "csv", "stats timeline format: csv | jsonl")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: satrace [flags] gen|summary|stats")
		os.Exit(2)
	}
	if err := checkFlags(*n); err != nil {
		fmt.Fprintf(os.Stderr, "satrace: %v\n", err)
		os.Exit(2)
	}
	if *in != "" {
		// The trace comes from the file; generation parameters are ignored.
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "workload" || fl.Name == "n" {
				fmt.Fprintf(os.Stderr, "satrace: warning: -%s is ignored when -in is set\n", fl.Name)
			}
		})
	}
	cmd := flag.Arg(0)
	if err := run(cmd, *wl, *n, *out, *in, *gz, *interval, *format); err != nil {
		fmt.Fprintf(os.Stderr, "satrace: %v\n", err)
		os.Exit(1)
	}
}

// checkFlags rejects flag values that no run can use; main exits 2 on its
// error.
func checkFlags(n int) error {
	if n < 0 {
		return fmt.Errorf("-n %d invalid (want >= 0)", n)
	}
	return nil
}

func run(cmd, wl string, n int, out, in string, gz bool, interval uint64, format string) error {
	var recs []trace.Record
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		recs, err = trace.ReadCSV(f)
		if err != nil {
			return err
		}
	} else {
		var err error
		recs, err = generate(wl, n)
		if err != nil {
			return err
		}
	}
	switch cmd {
	case "gen":
		return writeOut(out, gz, func(w io.Writer) error { return trace.WriteCSV(w, recs) })
	case "summary":
		fmt.Println(trace.Summarize(recs))
		return nil
	case "stats":
		return runStats(recs, out, gz, interval, format)
	}
	return fmt.Errorf("unknown command %q (want gen, summary, or stats)", cmd)
}

// writeOut runs emit against the -out file (or stdout), optionally wrapping
// it in a gzip compressor, and propagates the Close errors — for a buffered
// or compressed stream, that is where a full disk surfaces.
func writeOut(out string, gz bool, emit func(io.Writer) error) error {
	var w io.Writer = os.Stdout
	var closers []io.Closer
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		w = f
		closers = append(closers, f)
	}
	if gz {
		zw := gzip.NewWriter(w)
		w = zw
		// The compressor must flush before the file closes beneath it.
		closers = append([]io.Closer{zw}, closers...)
	}
	err := emit(w)
	for _, c := range closers {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// runStats replays the trace as one scatter-add stream operation on the
// Table 1 machine, sampling the hardware performance counters every
// interval cycles, and exports the timeline.
func runStats(recs []trace.Record, out string, gz bool, interval uint64, format string) error {
	if format != "csv" && format != "jsonl" {
		return fmt.Errorf("unknown -format %q (want csv or jsonl)", format)
	}
	if interval == 0 {
		return fmt.Errorf("-interval must be positive")
	}
	if len(recs) == 0 {
		return fmt.Errorf("empty trace")
	}
	kind := recs[0].Kind
	addrs := make([]mem.Addr, len(recs))
	vals := make([]mem.Word, len(recs))
	for i, r := range recs {
		if r.Kind != kind {
			return fmt.Errorf("mixed-kind trace: record %d is %v, trace started with %v", i, r.Kind, kind)
		}
		addrs[i] = r.Addr
		vals[i] = r.Val
	}
	m := machine.New(machine.DefaultConfig())
	tl := m.StartTimeline(interval)
	m.RunOp(machine.ScatterAdd("trace", kind, addrs, vals))
	m.RunOp(machine.Fence())
	m.StopTimeline()
	// Close the timeline with the final counter values so the last partial
	// interval is not lost.
	if len(tl.Samples) == 0 || tl.Samples[len(tl.Samples)-1].Cycle != m.Now() {
		tl.Record(m.Now(), m.StatsSnapshot())
	}
	return writeOut(out, gz, func(w io.Writer) error { return tl.Write(w, format) })
}

// generate builds one of the §4.5 trace workloads.
func generate(wl string, n int) ([]trace.Record, error) {
	histogram := func(rangeSize int) []trace.Record {
		idx := workload.UniformIndices(n, rangeSize, 0x7ace)
		recs := make([]trace.Record, len(idx))
		for i, x := range idx {
			recs[i] = trace.Record{Kind: mem.AddI64, Addr: mem.Addr(x), Val: mem.I64(1)}
		}
		return recs
	}
	switch wl {
	case "narrow":
		return histogram(256), nil
	case "wide":
		return histogram(1 << 20), nil
	case "mole":
		md := apps.NewMolDyn(903, 8.0, 0x7ace)
		addrs, vals := md.SARefs()
		recs := make([]trace.Record, len(addrs))
		for i := range addrs {
			recs[i] = trace.Record{Kind: mem.AddF64, Addr: addrs[i] - md.ForceBase, Val: vals[i]}
		}
		return recs, nil
	case "spas":
		s := apps.NewSpMV(8, 8, 5, 0x7ace)
		addrs, vals := s.EBERefs()
		recs := make([]trace.Record, len(addrs))
		for i := range addrs {
			recs[i] = trace.Record{Kind: mem.AddF64, Addr: addrs[i] - s.YBase, Val: vals[i]}
		}
		return recs, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want narrow, wide, mole, spas)", wl)
}

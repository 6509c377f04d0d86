package scatteradd

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation plus the ablations, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. Figures run at a reduced data scale per
// iteration to keep benchmark wall time reasonable; run
// cmd/scatteradd with -scale 1 for the full paper-scale tables.

import (
	"runtime"
	"testing"
)

// benchOpts is the per-iteration scale used by the benchmarks; figures fan
// their independent runs across one worker per CPU (Jobs). Compare
// BenchmarkReportJobs1 against BenchmarkReportJobsN for the end-to-end
// speedup of the parallel experiment runner.
var benchOpts = ExpOptions{Scale: 8, Jobs: runtime.NumCPU()}

// BenchmarkReportJobs1 regenerates the full report sequentially.
func BenchmarkReportJobs1(b *testing.B) { benchReport(b, 1) }

// BenchmarkReportJobsN regenerates the full report with one worker per CPU.
func BenchmarkReportJobsN(b *testing.B) { benchReport(b, runtime.NumCPU()) }

func benchReport(b *testing.B, jobs int) {
	b.Helper()
	o := benchOpts
	o.Jobs = jobs
	for i := 0; i < b.N; i++ {
		md, checks := Report(o)
		if len(md) == 0 || len(checks) == 0 {
			b.Fatal("empty report")
		}
	}
}

func benchFigure(b *testing.B, n int) {
	b.Helper()
	benchFigureOpts(b, n, benchOpts)
}

func benchFigureOpts(b *testing.B, n int, o ExpOptions) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tab, err := Figure(n, o)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// legacyOpts disables quiescence fast-forwarding so the engine ticks every
// cycle; comparing BenchmarkFigNLegacy against BenchmarkFigN measures the
// fast-forward speedup (internal/differ proves the outputs identical).
func legacyOpts() ExpOptions {
	o := benchOpts
	o.Legacy = true
	return o
}

// BenchmarkFig6Legacy regenerates Figure 6 with per-cycle stepping.
func BenchmarkFig6Legacy(b *testing.B) { benchFigureOpts(b, 6, legacyOpts()) }

// BenchmarkFig10Legacy regenerates Figure 10 with per-cycle stepping.
func BenchmarkFig10Legacy(b *testing.B) { benchFigureOpts(b, 10, legacyOpts()) }

// BenchmarkFig13Legacy regenerates Figure 13 with per-cycle stepping.
func BenchmarkFig13Legacy(b *testing.B) { benchFigureOpts(b, 13, legacyOpts()) }

// BenchmarkTable1 renders the machine-parameter table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(Table1().Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig6 regenerates Figure 6 (histogram vs input length).
func BenchmarkFig6(b *testing.B) { benchFigure(b, 6) }

// BenchmarkFig7 regenerates Figure 7 (histogram vs index range).
func BenchmarkFig7(b *testing.B) { benchFigure(b, 7) }

// BenchmarkFig8 regenerates Figure 8 (privatization comparison).
func BenchmarkFig8(b *testing.B) { benchFigure(b, 8) }

// BenchmarkFig9 regenerates Figure 9 (SpMV: CSR vs EBE).
func BenchmarkFig9(b *testing.B) { benchFigure(b, 9) }

// BenchmarkFig10 regenerates Figure 10 (molecular dynamics).
func BenchmarkFig10(b *testing.B) { benchFigure(b, 10) }

// BenchmarkFig11 regenerates Figure 11 (combining store vs latency).
func BenchmarkFig11(b *testing.B) { benchFigure(b, 11) }

// BenchmarkFig12 regenerates Figure 12 (combining store vs throughput).
func BenchmarkFig12(b *testing.B) { benchFigure(b, 12) }

// BenchmarkFig13 regenerates Figure 13 (multi-node scaling).
func BenchmarkFig13(b *testing.B) { benchFigure(b, 13) }

// BenchmarkFig14 regenerates Figure 14 (interconnect scale-out, 16-1024
// nodes on every topology).
func BenchmarkFig14(b *testing.B) { benchFigure(b, 14) }

// BenchmarkAblationDRAMSched compares FR-FCFS vs FIFO DRAM scheduling.
func BenchmarkAblationDRAMSched(b *testing.B) { benchAblation(b, AblationDRAMSched) }

// BenchmarkAblationSAPlacement compares per-bank vs single-unit placement.
func BenchmarkAblationSAPlacement(b *testing.B) { benchAblation(b, AblationSAPlacement) }

// BenchmarkAblationBatchSize sweeps the sort&scan batch size.
func BenchmarkAblationBatchSize(b *testing.B) { benchAblation(b, AblationBatchSize) }

// BenchmarkAblationCSPolicy compares the paper's combining store against
// eager operand pre-combining.
func BenchmarkAblationCSPolicy(b *testing.B) { benchAblation(b, AblationEagerCombine) }

// BenchmarkAblationCombiningStore sweeps combining-store entries on the
// full machine.
func BenchmarkAblationCombiningStore(b *testing.B) { benchAblation(b, AblationCombiningStore) }

func benchAblation(b *testing.B, run func(ExpOptions) ExpTable) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if tab := run(benchOpts); len(tab.Rows) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

// BenchmarkAblationOverlap compares sequential vs software-pipelined
// scatter-add scheduling.
func BenchmarkAblationOverlap(b *testing.B) { benchAblation(b, AblationOverlap) }

// BenchmarkAblationHierarchical compares linear vs logarithmic multi-node
// combining.
func BenchmarkAblationHierarchical(b *testing.B) { benchAblation(b, AblationHierarchical) }

// BenchmarkAblationWritePolicy compares the cache write policies.
func BenchmarkAblationWritePolicy(b *testing.B) { benchAblation(b, AblationWritePolicy) }

// BenchmarkScatterAddUnit measures raw simulated scatter-add throughput
// (simulator performance, not a paper figure).
func BenchmarkScatterAddUnit(b *testing.B) {
	data := make([]int, 4096)
	for i := range data {
		data[i] = (i * 2654435761) % 512
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New()
		if bins, _ := HistogramI64(m, data, 512); bins[0] < 0 {
			b.Fatal("impossible")
		}
	}
}

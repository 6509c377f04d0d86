package scatteradd

// This file re-exports the experiment surface: the runners that regenerate
// every table and figure of the paper's evaluation, the ablation studies,
// and the reproduction report with its claim checks.

import (
	"fmt"

	"scatteradd/internal/exp"
)

// Experiments.
type (
	// ExpTable is a rendered experiment (title, header, rows).
	ExpTable = exp.Table
	// ExpOptions controls experiment scale (Scale: 1 = paper sizes),
	// parallelism (Jobs), fault injection (Faults), and checkpoint/resume
	// of figure sweeps (CheckpointDir).
	ExpOptions = exp.Options
)

// Table1 renders the machine parameters as in the paper's Table 1.
func Table1() ExpTable { return exp.Table1() }

// PlotFigure renders an ASCII chart of a figure's table in the style of the
// paper's own presentation (log-log curves, grouped bars, scaling curves).
var PlotFigure = exp.Plot

// ReproCheck is one verified paper claim from Report.
type ReproCheck = exp.Check

// Report regenerates every experiment, checks the paper's headline claims
// against the measured shapes, and returns a markdown report plus the
// individual check results.
var Report = exp.Report

// Figure regenerates one of the paper's figures (6-13), or the interconnect
// scale-out extension (14), at the given scale.
// With o.CheckpointDir set, a completed figure is snapshotted there and a
// repeat request with matching options is served from the snapshot.
func Figure(n int, o ExpOptions) (ExpTable, error) {
	if f, ok := exp.FigureNumber(n); ok {
		return f.Gen(o), nil
	}
	return ExpTable{}, fmt.Errorf("scatteradd: no figure %d in the paper's evaluation", n)
}

// Individual ablation studies beyond the paper's own figures.
var (
	// AblationDRAMSched compares FR-FCFS against FIFO DRAM scheduling.
	AblationDRAMSched = exp.AblationDRAMSched
	// AblationSAPlacement compares per-bank scatter-add units against a
	// single unit at the memory interface.
	AblationSAPlacement = exp.AblationSAPlacement
	// AblationBatchSize sweeps the software sort&scan batch size.
	AblationBatchSize = exp.AblationBatchSize
	// AblationEagerCombine evaluates eager operand pre-combining.
	AblationEagerCombine = exp.AblationEagerCombine
	// AblationOverlap compares sequential vs software-pipelined scatter-add.
	AblationOverlap = exp.AblationOverlap
	// AblationHierarchical compares linear vs logarithmic multi-node
	// combining (the paper's §5 future work).
	AblationHierarchical = exp.AblationHierarchical
	// AblationWritePolicy compares write-allocate vs write-no-allocate.
	AblationWritePolicy = exp.AblationWritePolicy
	// AblationCombiningStore sweeps combining-store entries on the full
	// machine.
	AblationCombiningStore = exp.AblationCombiningStore
)

// Ablations returns all design-choice ablation studies (DRAM scheduling,
// unit placement, batch size, eager combining, combining-store size).
func Ablations(o ExpOptions) []ExpTable {
	return []ExpTable{
		AblationDRAMSched(o),
		AblationSAPlacement(o),
		AblationBatchSize(o),
		AblationEagerCombine(o),
		AblationCombiningStore(o),
		AblationOverlap(o),
		AblationHierarchical(o),
		AblationWritePolicy(o),
	}
}

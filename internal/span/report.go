package span

import (
	"fmt"
	"sort"
	"strings"
)

// StageStat aggregates one stage across a set of sampled ops.
type StageStat struct {
	Stage  Stage
	Ops    int    // ops that visited the stage at least once
	Cycles uint64 // total cycles attributed to the stage
}

// Report is a deterministic latency attribution over a set of sampled op
// lifecycles: where did the cycles of a mean/p50/p99 op go, stage by
// stage, split into queueing and service time.
type Report struct {
	Ops    int
	Rate   int // sampling rate the ops were collected at (0 if unknown)
	Mean   float64
	P50    uint64
	P99    uint64
	Stages []StageStat // visited stages only, in Stage order
}

// Aggregate reduces completed ops to a Report. It is pure and order-
// insensitive in its statistics, but callers that want byte-identical
// reports across schedules should still pass ops in a deterministic order
// (the exp layer concatenates per-run slices in input order).
func Aggregate(ops []Op) Report {
	r := Report{Ops: len(ops)}
	if len(ops) == 0 {
		return r
	}
	var stages [numStages]StageStat
	totals := make([]uint64, 0, len(ops))
	var sum uint64
	for i := range ops {
		op := &ops[i]
		lat := op.End - op.Start
		totals = append(totals, lat)
		sum += lat
		cyc, _ := op.StageCycles()
		for s := Stage(0); s < numStages; s++ {
			if cyc[s] > 0 {
				stages[s].Ops++
				stages[s].Cycles += cyc[s]
			}
		}
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	r.Mean = float64(sum) / float64(len(ops))
	r.P50 = percentileU64(totals, 50)
	r.P99 = percentileU64(totals, 99)
	for s := Stage(0); s < numStages; s++ {
		if stages[s].Ops > 0 {
			stages[s].Stage = s
			r.Stages = append(r.Stages, stages[s])
		}
	}
	return r
}

// percentileU64 is the nearest-rank percentile of an ascending-sorted
// slice (p in (0,100]).
func percentileU64(sorted []uint64, p int) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// AttributedCycles returns the total stage-attributed cycles.
func (r Report) AttributedCycles() uint64 {
	var sum uint64
	for _, s := range r.Stages {
		sum += s.Cycles
	}
	return sum
}

// QueueCycles returns the cycles attributed to queueing stages. A stage
// outside the known set (a report read back from disk) is a service stage,
// as Stage.Class has it.
func (r Report) QueueCycles() uint64 {
	var sum uint64
	for _, s := range r.Stages {
		if int(s.Stage) < len(queueStage) && queueStage[s.Stage] {
			sum += s.Cycles
		}
	}
	return sum
}

// ServiceCycles returns the cycles attributed to service stages.
func (r Report) ServiceCycles() uint64 { return r.AttributedCycles() - r.QueueCycles() }

// Bottleneck returns the stage with the most attributed cycles (ties go
// to the earlier stage) and false if no ops were sampled.
func (r Report) Bottleneck() (StageStat, bool) {
	var best StageStat
	found := false
	for _, s := range r.Stages {
		if !found || s.Cycles > best.Cycles {
			best, found = s, true
		}
	}
	return best, found
}

// Format renders the report as a deterministic aligned text table, each
// line prefixed with indent.
func (r Report) Format(indent string) string {
	var b strings.Builder
	if r.Ops == 0 {
		fmt.Fprintf(&b, "%sno ops sampled\n", indent)
		return b.String()
	}
	fmt.Fprintf(&b, "%ssampled ops: %d   latency cycles: mean %.1f  p50 %d  p99 %d\n",
		indent, r.Ops, r.Mean, r.P50, r.P99)
	total := r.AttributedCycles()
	rows := [][]string{{"stage", "class", "ops", "cycles", "mean", "share"}}
	for _, s := range r.Stages {
		rows = append(rows, []string{
			s.Stage.String(),
			s.Stage.Class(),
			fmt.Sprintf("%d", s.Ops),
			fmt.Sprintf("%d", s.Cycles),
			fmt.Sprintf("%.1f", float64(s.Cycles)/float64(s.Ops)),
			fmt.Sprintf("%.1f%%", 100*float64(s.Cycles)/float64(total)),
		})
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		b.WriteString(indent)
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i == 0 {
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			} else {
				fmt.Fprintf(&b, "%*s", widths[i], cell)
			}
		}
		b.WriteString("\n")
	}
	if bn, ok := r.Bottleneck(); ok && total > 0 {
		fmt.Fprintf(&b, "%sbottleneck: %s (%s, %.1f%% of attributed cycles)\n",
			indent, bn.Stage, bn.Stage.Class(), 100*float64(bn.Cycles)/float64(total))
	}
	return b.String()
}

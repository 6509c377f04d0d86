package exp

import (
	"fmt"
	"strings"

	"scatteradd/internal/span"
)

// SpanRow labels one run's latency-attribution report inside a Table's span
// appendix (Options.CollectSpans). Rows appear in run (input) order, so the
// appendix is byte-identical for every worker count.
type SpanRow struct {
	Label  string
	Report span.Report
}

// spanRate returns the effective sampling rate (1 in N issued operations).
func (o Options) spanRate() int {
	if o.SpanRate > 0 {
		return o.SpanRate
	}
	return 16
}

// formatSpanRows renders the span appendix: one summary line per run with
// the queue/service split and the bottleneck stage, followed by the full
// per-stage breakdown of the run with the slowest mean (the figure's
// worst-case row, which is where attribution matters).
func formatSpanRows(rows []SpanRow, indent string) string {
	var b strings.Builder
	header := []string{"run", "ops", "mean_cyc", "p50", "p99", "queue%", "service%", "bottleneck"}
	cells := make([][]string, 0, len(rows))
	worst := -1
	for i, r := range rows {
		rep := r.Report
		q, s := rep.QueueCycles(), rep.ServiceCycles()
		att := q + s
		pct := func(v uint64) string {
			if att == 0 {
				return "-"
			}
			return fmt.Sprintf("%.0f%%", 100*float64(v)/float64(att))
		}
		bn := "-"
		if st, ok := rep.Bottleneck(); ok {
			bn = st.Stage.String()
		}
		cells = append(cells, []string{
			r.Label, fmt.Sprintf("%d", rep.Ops), fmt.Sprintf("%.1f", rep.Mean),
			fmt.Sprintf("%d", rep.P50), fmt.Sprintf("%d", rep.P99),
			pct(q), pct(s), bn,
		})
		if rep.Ops > 0 && (worst < 0 || rep.Mean > rows[worst].Report.Mean) {
			worst = i
		}
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range cells {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(row []string) {
		b.WriteString(indent)
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for _, row := range cells {
		line(row)
	}
	if worst >= 0 {
		fmt.Fprintf(&b, "%sslowest run (%s), per-stage attribution:\n", indent, rows[worst].Label)
		b.WriteString(rows[worst].Report.Format(indent + "  "))
	}
	return b.String()
}

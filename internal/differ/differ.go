// Package differ is the cycle-exactness gate for the quiescence
// fast-forward engine: it runs a figure's full simulation suite twice —
// once on the fast-forward path (the default) and once with legacy
// per-cycle stepping — and requires the two runs to be indistinguishable:
// byte-identical rendered tables, identical raw performance-counter
// snapshots (every bucket of every histogram, so skipped-cycle occupancy
// accounting is exact), and identical span reports (every sampled request
// lifecycle hits the same cycles).
//
// Any divergence means a component's NextEvent contract is wrong: it
// reported quiescence over a cycle in which it would have done observable
// work, or a push into it failed to mark it due. A per-cycle sample counted
// at the wrong change point moves both modes alike; the goldens in
// internal/exp and the per-cycle sample law tests catch that instead.
package differ

import (
	"fmt"

	"scatteradd/internal/exp"
	"scatteradd/internal/stats"
)

// Figures lists every figure the harness can diff: the numbers of the
// figure registry, in paper order.
var Figures = func() []int {
	var ns []int
	for _, f := range exp.Figures {
		ns = append(ns, f.Number)
	}
	return ns
}()

// Run regenerates figure fig with the given options. Options.Legacy selects
// the stepping mode.
func Run(fig int, o exp.Options) (exp.Table, error) {
	f, ok := exp.FigureNumber(fig)
	if !ok {
		return exp.Table{}, fmt.Errorf("differ: no figure %d", fig)
	}
	return f.Gen(o), nil
}

// Diff runs figure fig in both stepping modes with full stats and span
// collection and returns an error describing the first divergence, or nil
// when the runs are indistinguishable.
func Diff(fig int, o exp.Options) error {
	o.CollectStats = true
	o.CollectSpans = true
	o.Legacy = false
	ff, err := Run(fig, o)
	if err != nil {
		return err
	}
	o.Legacy = true
	legacy, err := Run(fig, o)
	if err != nil {
		return err
	}
	if err := Compare(ff, legacy); err != nil {
		return fmt.Errorf("fig %d: fast-forward diverges from per-cycle stepping: %w", fig, err)
	}
	return nil
}

// Compare reports the first observable difference between a fast-forward
// and a legacy run of the same figure, or nil.
func Compare(ff, legacy exp.Table) error {
	if err := compareSnapshots(ff.Counters, legacy.Counters); err != nil {
		return err
	}
	if err := compareSpans(ff.Spans, legacy.Spans); err != nil {
		return err
	}
	// The rendered table (rows, counter appendix, span appendix) last: the
	// raw comparisons above pinpoint divergences that collapsing or
	// formatting could mask.
	if a, b := ff.String(), legacy.String(); a != b {
		return fmt.Errorf("rendered tables differ\n--- fast-forward ---\n%s--- per-cycle ---\n%s", a, b)
	}
	return nil
}

// compareSnapshots compares raw (uncollapsed) counter snapshots entry by
// entry: every counter, gauge high-water mark, and histogram bucket.
func compareSnapshots(a, b stats.Snapshot) error {
	if len(a.Entries) != len(b.Entries) {
		return fmt.Errorf("stats snapshots have %d vs %d entries", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		ea, eb := a.Entries[i], b.Entries[i]
		if ea != eb {
			return fmt.Errorf("stats entry %d differs: fast-forward %s=%d, per-cycle %s=%d",
				i, ea.Key, ea.Val, eb.Key, eb.Val)
		}
	}
	return nil
}

// compareSpans compares per-run span reports: same labels, same op counts,
// same latency statistics, same per-stage cycle attribution.
func compareSpans(a, b []exp.SpanRow) error {
	if len(a) != len(b) {
		return fmt.Errorf("span appendix has %d vs %d rows", len(a), len(b))
	}
	for i := range a {
		ra, rb := a[i], b[i]
		if ra.Label != rb.Label {
			return fmt.Errorf("span row %d label differs: %q vs %q", i, ra.Label, rb.Label)
		}
		if ra.Report.Ops != rb.Report.Ops || ra.Report.Mean != rb.Report.Mean ||
			ra.Report.P50 != rb.Report.P50 || ra.Report.P99 != rb.Report.P99 {
			return fmt.Errorf("span row %d (%q) stats differ: %+v vs %+v", i, ra.Label, ra.Report, rb.Report)
		}
		if len(ra.Report.Stages) != len(rb.Report.Stages) {
			return fmt.Errorf("span row %d (%q) has %d vs %d stages", i, ra.Label,
				len(ra.Report.Stages), len(rb.Report.Stages))
		}
		for s := range ra.Report.Stages {
			if ra.Report.Stages[s] != rb.Report.Stages[s] {
				return fmt.Errorf("span row %d (%q) stage %d differs: %+v vs %+v",
					i, ra.Label, s, ra.Report.Stages[s], rb.Report.Stages[s])
			}
		}
	}
	return nil
}

// Package exp contains the experiment runners that regenerate every table
// and figure of the paper's evaluation (§4). Each Fig* function returns a
// Table whose rows correspond to the points of the original figure; the
// figure registry (Figures) lists them for the CLI, the daemon and the
// differential gate, and bench_test.go wraps them as Go benchmarks.
//
// Options.Scale shrinks dataset sizes for quick runs (1 = the paper's full
// sizes); the shapes are preserved at reduced scales. Options.Jobs bounds
// the worker pool that fans each figure's independent (workload, machine)
// simulations out across CPUs (see runner.go); rendered output is
// byte-identical for every worker count.
package exp

import (
	"encoding/csv"
	"fmt"
	"strings"

	"scatteradd/internal/fault"
	"scatteradd/internal/machine"
	"scatteradd/internal/stats"
)

// Table is a rendered experiment: a title, column headers, and rows.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string // paper-vs-measured commentary

	// Counters holds the hardware performance counters of every simulation
	// behind the table, merged in input order (Options.CollectStats). When
	// non-empty, String appends them as a counter appendix.
	Counters stats.Snapshot

	// Spans holds the per-run latency-attribution reports of every
	// simulation behind the table, in input order (Options.CollectSpans).
	// When non-empty, String appends them as a span appendix.
	Spans []SpanRow
}

// Validate reports whether t is a table the program could have built, so
// that String and CSV can render it: no row may hold more cells than the
// header. Every table the program builds passes; one read back from a
// checkpoint or from the daemon's persisted cache index is checked before it
// is served, and one that fails is recomputed.
func (t Table) Validate() error {
	for i, row := range t.Rows {
		if len(row) > len(t.Header) {
			return fmt.Errorf("exp: table %q row %d has %d cells for %d header columns", t.Title, i, len(row), len(t.Header))
		}
	}
	return nil
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if t.Counters.Len() > 0 {
		b.WriteString("counter appendix (merged across runs, collapsed across instances):\n")
		b.WriteString(t.Counters.Collapse().Format("  "))
	}
	if len(t.Spans) > 0 {
		b.WriteString("span appendix (sampled request lifecycles, per run):\n")
		b.WriteString(formatSpanRows(t.Spans, "  "))
	}
	return b.String()
}

// CSV renders the table as RFC 4180 comma-separated values (header + rows);
// cells containing commas, quotes, or newlines are quoted.
func (t Table) CSV() string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.Write(t.Header); err != nil {
		panic(fmt.Sprintf("exp: CSV header of %q: %v", t.Title, err))
	}
	for r, row := range t.Rows {
		if err := w.Write(row); err != nil {
			panic(fmt.Sprintf("exp: CSV row %d of %q: %v", r, t.Title, err))
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		panic(fmt.Sprintf("exp: CSV of %q: %v", t.Title, err))
	}
	return b.String()
}

// Options control experiment scale and parallelism.
type Options struct {
	// Scale divides dataset sizes (1 = full paper scale; 4 = quarter data).
	Scale int
	// Jobs bounds the worker pool that runs a figure's independent
	// (workload, machine) simulations concurrently; it is the only
	// parallelism, since each simulation runs start to finish on one
	// goroutine. 0 means one worker per CPU (GOMAXPROCS); 1 runs everything
	// sequentially on the caller's goroutine. Output is byte-identical for
	// every value.
	Jobs int
	// Seed perturbs every workload seed (0 = the paper's fixed seeds),
	// regenerating all figures on statistically fresh datasets.
	Seed uint64
	// CollectStats attaches the merged hardware performance counters of a
	// figure's simulations to its Table (rendered as a counter appendix).
	// Counting itself is always on; this only controls snapshot collection,
	// so leaving it off costs nothing on the simulation hot path.
	CollectStats bool
	// CollectSpans samples per-request lifecycle spans on every simulation
	// behind a figure and attaches the per-run latency-attribution reports
	// to its Table (rendered as a span appendix). Off, no tracer is
	// installed and the simulation hot path pays nothing.
	CollectSpans bool
	// SpanRate samples one in every SpanRate issued memory operations when
	// CollectSpans is set (0 = a default of 16).
	SpanRate int
	// Legacy runs every simulation with per-cycle engine stepping instead
	// of the quiescence fast-forward path. Output is byte-identical either
	// way (enforced by internal/differ); the option exists for that
	// comparison and for performance attribution.
	Legacy bool
	// Faults injects deterministic hardware faults (network drops and
	// duplications, DRAM stalls, combining-store parity scrubs, FU retries)
	// into every simulation behind every figure. Recovery keeps reductions
	// bit-exact; only the timing columns move. The zero value injects
	// nothing and leaves all output byte-identical to an unfaulted run.
	Faults fault.Config
	// Topology restricts the interconnect scale-out figure (Fig 14) to a
	// single interconnect configuration ("" = sweep all of them). Names
	// follow multinode.ParseTopology: flat, flat+comb, hypercube, tree,
	// tree+comb, mesh, mesh+comb. Figures without a topology axis ignore it.
	Topology string
	// FanIn overrides the switch fan-in of Fig 14's tree topologies (0 = 4).
	FanIn int
	// CheckpointDir, when non-empty, persists each completed figure's table
	// to <dir>/<figure>.json and serves later requests with matching
	// options from that snapshot, so a killed sweep resumes where it left
	// off. Jobs does not participate in the match (output is identical for
	// every worker count); every other option does.
	CheckpointDir string
	// Progress, when non-nil, is invoked as each of a fan-out's independent
	// simulations completes, with the number done so far and the fan-out's
	// total. It is a pure observer for live progress reporting (the
	// simulation server streams these as NDJSON events): it never changes
	// rendered output and does not participate in the checkpoint
	// fingerprint. A figure may fan out more than once, restarting the
	// count; with Jobs > 1 the callback runs on worker goroutines and must
	// be safe for concurrent use. A figure served from a checkpoint
	// snapshot reports no progress — nothing is simulated.
	Progress func(done, total int)
}

// DefaultOptions runs at the paper's full dataset sizes with one worker per
// CPU.
func DefaultOptions() Options { return Options{Scale: 1} }

// seed derives a workload seed from a figure's base seed and Options.Seed.
func (o Options) seed(base uint64) uint64 {
	return base ^ (o.Seed * 0x9e3779b97f4a7c15)
}

func (o Options) scaled(n int) int {
	if o.Scale <= 1 {
		return n
	}
	s := n / o.Scale
	if s < 16 {
		s = 16
	}
	return s
}

// us converts core cycles to microseconds (the paper's time axis) at the
// machine's ClockGHz.
func us(cycles uint64) float64 { return machine.CyclesToMicros(cycles) }

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.3g", v) }

// d formats an integer.
func d(v uint64) string { return fmt.Sprintf("%d", v) }

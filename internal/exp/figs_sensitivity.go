package exp

import (
	"fmt"

	"scatteradd/internal/apps"
	"scatteradd/internal/machine"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// sensitivityMachine builds the §4.4 configuration: no cache, one
// scatter-add unit with the given combining-store size and FU latency, in
// front of a uniform memory with the given latency and word interval.
func sensitivityMachine(o Options, entries, fuLat, memLat, interval int) *machine.Machine {
	cfg := machine.DefaultConfig()
	cfg.SA.Entries = entries
	cfg.SA.FULatency = fuLat
	// Let the input queue keep the single unit fed regardless of store size.
	cfg.SA.InQDepth = 16
	cfg.UniformMem = &machine.UniformMemConfig{Latency: memLat, Interval: interval}
	cfg.LegacyStepping = o.Legacy
	cfg.Faults = o.Faults
	return machine.New(cfg)
}

// sensPoint is one point of the §4.4 sensitivity grid.
type sensPoint struct {
	entries, fuLat, memLat, interval int
}

// sensOut is one sensitivity point's runtime plus (when collecting) the
// run's performance-counter snapshot and span report.
type sensOut struct {
	us    float64
	snap  stats.Snapshot
	rep   span.Report
	label string
}

// runSensitivity times one histogram scatter-add on the simplified system;
// each call builds its own workload and machine, so points are independent.
func runSensitivity(o Options, p sensPoint, n, rng int) sensOut {
	h := apps.NewHistogram(n, rng, o.seed(0xF16_11))
	m := sensitivityMachine(o, p.entries, p.fuLat, p.memLat, p.interval)
	tr := o.newTracer()
	m.SetSpanTracer(tr)
	res := h.RunHW(m)
	mustVerify(m, h, "sensitivity histogram")
	out := sensOut{us: us(res.Cycles)}
	if o.CollectStats {
		out.snap = m.StatsSnapshot()
	}
	if o.CollectSpans {
		out.rep = spanReport(tr)
		out.label = fmt.Sprintf("cs=%d fu=%d mem=%d int=%d bins=%d",
			p.entries, p.fuLat, p.memLat, p.interval, rng)
	}
	return out
}

// mergeSens attaches the merged counter snapshot and per-point span reports
// of a sensitivity grid to its table when the collect options are set.
func mergeSens(o Options, t *Table, outs []sensOut) {
	if o.CollectSpans {
		for _, x := range outs {
			t.Spans = append(t.Spans, SpanRow{Label: x.label, Report: x.rep})
		}
	}
	if !o.CollectStats {
		return
	}
	snaps := make([]stats.Snapshot, len(outs))
	for i, x := range outs {
		snaps[i] = x.snap
	}
	t.Counters = stats.MergeAll(snaps)
}

// sensitivityTable fans a (combining-store entries) x (column config) grid
// out across the worker pool and assembles one row per store size.
func sensitivityTable(o Options, t Table, cols []sensPoint, n, rng int) Table {
	css := []int{2, 4, 8, 16, 64}
	vals := mapN(o, len(css)*len(cols), func(i int) sensOut {
		p := cols[i%len(cols)]
		p.entries = css[i/len(cols)]
		return runSensitivity(o, p, n, rng)
	})
	for r, cs := range css {
		row := []string{d(uint64(cs))}
		for c := range cols {
			row = append(row, f(vals[r*len(cols)+c].us))
		}
		t.Rows = append(t.Rows, row)
	}
	mergeSens(o, &t, vals)
	return t
}

// Fig11 reproduces Figure 11: histogram runtime versus combining-store size
// for memory latencies 8-256 (FU latency 4) and FU latencies 2-16 (memory
// latency 16); memory throughput one word per 2 cycles; 512 inputs over
// 65,536 bins.
func Fig11(o Options) Table { return o.checkpointed("fig11", fig11) }

func fig11(o Options) Table {
	t := Table{
		Title:  "Figure 11: sensitivity to combining-store size, memory latency, and FU latency (us)",
		Header: []string{"cs_entries", "mem8_fu4", "mem16_fu4", "mem64_fu4", "mem256_fu4", "mem16_fu2", "mem16_fu8", "mem16_fu16"},
		Notes: []string{
			"paper: with 16 entries performance is nearly latency-independent;",
			"64 entries tolerate even 256-cycle memory latency",
		},
	}
	var cols []sensPoint
	for _, memLat := range []int{8, 16, 64, 256} {
		cols = append(cols, sensPoint{fuLat: 4, memLat: memLat, interval: 2})
	}
	for _, fuLat := range []int{2, 8, 16} {
		cols = append(cols, sensPoint{fuLat: fuLat, memLat: 16, interval: 2})
	}
	return sensitivityTable(o, t, cols, o.scaled(512), 65536)
}

// Fig12 reproduces Figure 12: histogram runtime versus combining-store size
// and memory throughput (1 word per 1/2/4/16 cycles) for 16 bins (high
// combining locality) and 65,536 bins (no locality).
func Fig12(o Options) Table { return o.checkpointed("fig12", fig12) }

func fig12(o Options) Table {
	t := Table{
		Title:  "Figure 12: sensitivity to combining-store size and memory throughput (us)",
		Header: []string{"cs_entries", "int1_bins16", "int1_bins64K", "int2_bins16", "int2_bins64K", "int4_bins16", "int4_bins64K", "int16_bins16", "int16_bins64K"},
		Notes: []string{
			"paper: low throughput cannot be overcome even by 64 entries for the wide case;",
			"with 16 bins, combining absorbs most requests and throughput matters far less",
		},
	}
	// The bin count varies per column here, so the grid carries it alongside
	// the machine parameters.
	n := o.scaled(512)
	css := []int{2, 4, 8, 16, 64}
	type col struct {
		interval, bins int
	}
	var cols []col
	for _, interval := range []int{1, 2, 4, 16} {
		for _, bins := range []int{16, 65536} {
			cols = append(cols, col{interval, bins})
		}
	}
	vals := mapN(o, len(css)*len(cols), func(i int) sensOut {
		cs, c := css[i/len(cols)], cols[i%len(cols)]
		return runSensitivity(o, sensPoint{entries: cs, fuLat: 4, memLat: 16, interval: c.interval}, n, c.bins)
	})
	for r, cs := range css {
		row := []string{d(uint64(cs))}
		for c := range cols {
			row = append(row, f(vals[r*len(cols)+c].us))
		}
		t.Rows = append(t.Rows, row)
	}
	mergeSens(o, &t, vals)
	return t
}

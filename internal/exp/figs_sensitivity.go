package exp

import (
	"fmt"

	"scatteradd/internal/apps"
	"scatteradd/internal/machine"
)

// sensPoint is one point of the §4.4 sensitivity grid.
type sensPoint struct {
	entries, fuLat, memLat, interval, bins int
}

// simulate times one histogram scatter-add of n inputs over the point's bins
// on the §4.4 configuration: no cache, one scatter-add unit with the point's
// combining-store size and FU latency, in front of a uniform memory with the
// point's latency and word interval. It returns the runtime in
// microseconds and the point record.
func (p sensPoint) simulate(o Options, n int) (float64, pointRecord) {
	cfg := machine.DefaultConfig()
	cfg.SA.Entries = p.entries
	cfg.SA.FULatency = p.fuLat
	// Let the input queue keep the single unit fed regardless of store size.
	cfg.SA.InQDepth = 16
	cfg.UniformMem = &machine.UniformMemConfig{Latency: p.memLat, Interval: p.interval}
	h := apps.NewHistogram(n, p.bins, o.seed(0xF16_11))
	m, tr := o.newMachine(cfg)
	res := h.RunHW(m)
	mustVerify(m, h, "sensitivity histogram")
	label := fmt.Sprintf("cs=%d fu=%d mem=%d int=%d bins=%d", p.entries, p.fuLat, p.memLat, p.interval, p.bins)
	return us(res.Cycles), o.record(label, m, tr)
}

// sensitivityTable fans a (combining-store entries) x (column config) grid
// of n-input histograms out across the worker pool and assembles one row per
// store size.
func sensitivityTable(o Options, t Table, cols []sensPoint, n int) Table {
	css := []int{2, 4, 8, 16, 64}
	vals := runPoints(o, &t, len(css)*len(cols), func(i int) (float64, pointRecord) {
		p := cols[i%len(cols)]
		p.entries = css[i/len(cols)]
		return p.simulate(o, n)
	})
	for r, cs := range css {
		row := []string{d(uint64(cs))}
		for c := range cols {
			row = append(row, f(vals[r*len(cols)+c]))
		}
		t.Rows = append(t.Rows, row)
	}
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
		cols = append(cols, sensPoint{fuLat: 4, memLat: memLat, interval: 2, bins: 65536})
	}
	for _, fuLat := range []int{2, 8, 16} {
		cols = append(cols, sensPoint{fuLat: fuLat, memLat: 16, interval: 2, bins: 65536})
	}
	return sensitivityTable(o, t, cols, o.scaled(512))
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
	var cols []sensPoint
	for _, interval := range []int{1, 2, 4, 16} {
		for _, bins := range []int{16, 65536} {
			cols = append(cols, sensPoint{fuLat: 4, memLat: 16, interval: interval, bins: bins})
		}
	}
	return sensitivityTable(o, t, cols, o.scaled(512))
}

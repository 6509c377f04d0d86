package exp

import (
	"fmt"

	"scatteradd/internal/apps"
	"scatteradd/internal/machine"
)

// mustVerify panics when an application run produced a wrong result — every
// experiment doubles as a correctness check.
func mustVerify(m *machine.Machine, v interface{ Verify(*machine.Machine) error }, what string) {
	if err := v.Verify(m); err != nil {
		panic(fmt.Sprintf("exp: %s failed verification: %v", what, err))
	}
}

// histRun is one independent (workload, machine) histogram simulation: each
// task constructs its own Histogram from the point's seed and its own
// machine, so concurrent runs share nothing.
type histRun struct {
	n, rng int
	seed   uint64
	what   string
	run    func(*apps.Histogram, *machine.Machine) machine.Result
}

func runHW(h *apps.Histogram, m *machine.Machine) machine.Result   { return h.RunHW(m) }
func runSort(h *apps.Histogram, m *machine.Machine) machine.Result { return h.RunSortScan(m, 0) }
func runPriv(h *apps.Histogram, m *machine.Machine) machine.Result { return h.RunPrivatization(m, 0) }

// simulate runs the histogram on the paper's Table 1 machine, verifies it,
// and returns its cycle count and point record.
func (r histRun) simulate(o Options) (uint64, pointRecord) {
	h := apps.NewHistogram(r.n, r.rng, r.seed)
	m, tr := o.newMachine(machine.DefaultConfig())
	res := r.run(h, m)
	mustVerify(m, h, r.what)
	return res.Cycles, o.record(fmt.Sprintf("%s n=%d rng=%d", r.what, r.n, r.rng), m, tr)
}

// Fig6 reproduces Figure 6: histogram execution time for input lengths
// 256-8192 over a 2,048-bin range, hardware scatter-add versus software
// sort + segmented scan. The paper reports both scaling O(n) with hardware
// 3x-11x faster.
func Fig6(o Options) Table { return o.checkpointed("fig6", fig6) }

func fig6(o Options) Table {
	t := Table{
		Title:  "Figure 6: histogram vs input length (range 2048), HW scatter-add vs sort&segmented-scan",
		Header: []string{"n", "hw_us", "sortscan_us", "speedup"},
		Notes: []string{
			"paper: both O(n); HW wins by 3x (small n) up to 11x (large n)",
		},
	}
	const rng = 2048
	// Figure 6's input sizes are themselves the x-axis; Scale only trims the
	// largest points on quick runs.
	var ns []int
	for _, n := range []int{256, 512, 1024, 2048, 4096, 8192} {
		if o.Scale > 1 && n > 8192/o.Scale {
			continue
		}
		ns = append(ns, n)
	}
	runs := make([]histRun, 0, 2*len(ns))
	for _, n := range ns {
		seed := o.seed(0xF16_6 + uint64(n))
		runs = append(runs,
			histRun{n, rng, seed, "fig6 HW histogram", runHW},
			histRun{n, rng, seed, "fig6 SW histogram", runSort},
		)
	}
	cyc := runPoints(o, &t, len(runs), func(i int) (uint64, pointRecord) { return runs[i].simulate(o) })
	for r, n := range ns {
		hw, sw := cyc[2*r], cyc[2*r+1]
		t.Rows = append(t.Rows, []string{
			d(uint64(n)), f(us(hw)), f(us(sw)),
			f(float64(sw) / float64(hw)),
		})
	}
	return t
}

// Fig7 reproduces Figure 7: histogram execution time for 32,768 inputs over
// index ranges 1 to 4M. The paper shows the hardware's hot-bank penalty at
// tiny ranges, a fast middle region, and a cache-overflow knee at large
// ranges; sort&scan is flat until large ranges.
func Fig7(o Options) Table { return o.checkpointed("fig7", fig7) }

func fig7(o Options) Table {
	t := Table{
		Title:  "Figure 7: histogram vs index range (n=32768), HW scatter-add vs sort&segmented-scan",
		Header: []string{"range", "hw_us", "sortscan_us"},
		Notes: []string{
			"paper: HW slow at tiny ranges (hot bank), fastest mid-range, degrades past cache capacity;",
			"sort&scan roughly flat with a rise at very large ranges",
		},
	}
	n := o.scaled(32768)
	ranges := []int{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20}
	runs := make([]histRun, 0, 2*len(ranges))
	for _, rng := range ranges {
		seed := o.seed(0xF16_7 + uint64(rng))
		runs = append(runs,
			histRun{n, rng, seed, "fig7 HW histogram", runHW},
			histRun{n, rng, seed, "fig7 SW histogram", runSort},
		)
	}
	cyc := runPoints(o, &t, len(runs), func(i int) (uint64, pointRecord) { return runs[i].simulate(o) })
	for r, rng := range ranges {
		t.Rows = append(t.Rows, []string{d(uint64(rng)), f(us(cyc[2*r])), f(us(cyc[2*r+1]))})
	}
	return t
}

// Fig8 reproduces Figure 8: histogram with privatization versus hardware
// scatter-add for input lengths 1,024 and 32,768 over ranges 128-8,192.
// The paper shows privatization's O(m*n) cost growing with the range,
// with hardware more than an order of magnitude faster at large ranges.
func Fig8(o Options) Table { return o.checkpointed("fig8", fig8) }

func fig8(o Options) Table {
	t := Table{
		Title:  "Figure 8: histogram, HW scatter-add vs privatization (n in {1024, 32768})",
		Header: []string{"range", "n", "hw_us", "privatization_us", "speedup"},
		Notes: []string{
			"paper: privatization time grows with range (O(mn)); HW speedup exceeds 10x at large ranges",
		},
	}
	type point struct{ rng, n int }
	var points []point
	runs := make([]histRun, 0, 16)
	for _, n0 := range []int{1024, 32768} {
		n := o.scaled(n0)
		for _, rng := range []int{128, 512, 2048, 8192} {
			seed := o.seed(0xF16_8 + uint64(rng*n0))
			points = append(points, point{rng, n})
			runs = append(runs,
				histRun{n, rng, seed, "fig8 HW histogram", runHW},
				histRun{n, rng, seed, "fig8 privatization histogram", runPriv},
			)
		}
	}
	cyc := runPoints(o, &t, len(runs), func(i int) (uint64, pointRecord) { return runs[i].simulate(o) })
	for r, p := range points {
		hw, pr := cyc[2*r], cyc[2*r+1]
		t.Rows = append(t.Rows, []string{
			d(uint64(p.rng)), d(uint64(p.n)), f(us(hw)), f(us(pr)),
			f(float64(pr) / float64(hw)),
		})
	}
	return t
}

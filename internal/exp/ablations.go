package exp

import (
	"fmt"

	"scatteradd/internal/apps"
	"scatteradd/internal/dram"
	"scatteradd/internal/machine"
	"scatteradd/internal/mem"
	"scatteradd/internal/multinode"
	"scatteradd/internal/workload"
)

// Ablations beyond the paper's figures, exercising the design choices
// DESIGN.md calls out. Each returns a Table like the figure runners, and
// each fans its independent (workload, machine) runs out across the worker
// pool; every run builds its own workload, and its own machine through
// newMachine or newSystem. Ablation tables carry no counter or span
// appendix.

// AblationDRAMSched compares FR-FCFS memory access scheduling (the paper's
// cited mechanism) against strict FIFO on a cache-hostile histogram.
func AblationDRAMSched(o Options) Table {
	return o.checkpointed("ablation-dram-sched", ablationDRAMSched)
}

func ablationDRAMSched(o Options) Table {
	t := Table{
		Title:  "Ablation: DRAM scheduling policy (histogram n=16384, range 1M)",
		Header: []string{"policy", "us", "row_hit_rate"},
	}
	n := o.scaled(16384)
	pols := []dram.SchedPolicy{dram.FRFCFS, dram.FIFO}
	t.Rows = mapN(o, len(pols), func(i int) []string {
		pol := pols[i]
		cfg := machine.DefaultConfig()
		cfg.DRAM.Policy = pol
		m, _ := o.newMachine(cfg)
		h := apps.NewHistogram(n, 1<<20, o.seed(0xAB1))
		res := h.RunHW(m)
		mustVerify(m, h, "ablation dram histogram")
		_, _, st := m.ComponentStats()
		hitRate := float64(st.RowHits) / float64(st.RowHits+st.RowMisses)
		return []string{pol.String(), f(us(res.Cycles)), f(hitRate)}
	})
	return t
}

// AblationSAPlacement compares one scatter-add unit per cache bank (the
// paper's Figure 4a placement) against a single unit at a single memory
// interface port.
func AblationSAPlacement(o Options) Table {
	return o.checkpointed("ablation-sa-placement", ablationSAPlacement)
}

func ablationSAPlacement(o Options) Table {
	t := Table{
		Title:  "Ablation: scatter-add unit placement (histogram n=16384, range 2048)",
		Header: []string{"placement", "us"},
	}
	n := o.scaled(16384)
	bankCounts := []int{8, 1}
	t.Rows = mapN(o, len(bankCounts), func(i int) []string {
		banks := bankCounts[i]
		cfg := machine.DefaultConfig()
		cfg.Cache.Banks = banks
		cfg.Cache.PortWidth = 8 / banks // keep total cache bandwidth fixed
		cfg.SA.PortWidth = 8 / banks
		m, _ := o.newMachine(cfg)
		h := apps.NewHistogram(n, 2048, o.seed(0xAB2))
		res := h.RunHW(m)
		mustVerify(m, h, "ablation placement histogram")
		label := "per-bank (8 units)"
		if banks == 1 {
			label = "memory interface (1 unit)"
		}
		return []string{label, f(us(res.Cycles))}
	})
	return t
}

// AblationBatchSize sweeps the software sort&scan batch size (the paper
// reports 256 as its optimum on Merrimac).
func AblationBatchSize(o Options) Table {
	return o.checkpointed("ablation-batch-size", ablationBatchSize)
}

func ablationBatchSize(o Options) Table {
	t := Table{
		Title:  "Ablation: sort&scan batch size (histogram n=8192, range 2048)",
		Header: []string{"batch", "us"},
		Notes:  []string{"paper: 256 was the best batch size on Merrimac"},
	}
	n := o.scaled(8192)
	batches := []int{32, 64, 128, 256, 512, 1024, 2048, 4096}
	t.Rows = mapN(o, len(batches), func(i int) []string {
		batch := batches[i]
		h := apps.NewHistogram(n, 2048, o.seed(0xAB3))
		m, _ := o.newMachine(machine.DefaultConfig())
		res := h.RunSortScan(m, batch)
		mustVerify(m, h, "ablation batch histogram")
		return []string{d(uint64(batch)), f(us(res.Cycles))}
	})
	return t
}

// AblationEagerCombine compares the paper's combining store against the
// EagerCombine extension (pre-combining buffered operands while the memory
// value is outstanding) on a high-collision histogram.
func AblationEagerCombine(o Options) Table {
	return o.checkpointed("ablation-eager-combine", ablationEagerCombine)
}

func ablationEagerCombine(o Options) Table {
	t := Table{
		Title:  "Ablation: eager operand pre-combining (histogram n=16384, range 64)",
		Header: []string{"mode", "us", "fu_ops"},
	}
	n := o.scaled(16384)
	modes := []bool{false, true}
	t.Rows = mapN(o, len(modes), func(i int) []string {
		eager := modes[i]
		cfg := machine.DefaultConfig()
		cfg.SA.EagerCombine = eager
		m, _ := o.newMachine(cfg)
		h := apps.NewHistogram(n, 64, o.seed(0xAB4))
		res := h.RunHW(m)
		mustVerify(m, h, "ablation eager histogram")
		sa, _, _ := m.ComponentStats()
		label := "paper (chain after fill)"
		if eager {
			label = "eager pre-combine"
		}
		return []string{label, f(us(res.Cycles)), d(sa.FUOps)}
	})
	return t
}

// AblationOverlap measures §1's overlap claim — "the processor's main
// execution unit can continue running the program, while the sums are being
// updated in memory" — on the paper's own motivating pipeline: a histogram
// whose bins feed an equalization computation. Sequentially, the
// equalization kernel waits for the scatter-add to drain; with an
// asynchronous scatter-add it runs concurrently on the clusters (the
// equalization of the *previous* frame, in a streaming pipeline).
func AblationOverlap(o Options) Table { return o.checkpointed("ablation-overlap", ablationOverlap) }

func ablationOverlap(o Options) Table {
	t := Table{
		Title:  "Ablation: overlapping scatter-add with compute (histogram + equalization kernel)",
		Header: []string{"schedule", "us"},
		Notes:  []string{"paper §1: the core continues running while the scatter-add units work"},
	}
	n := o.scaled(32768)
	runSequential := func(h *apps.Histogram, m *machine.Machine, equalize machine.Op) machine.Result {
		res := h.RunHW(m)
		res.Add(m.RunOp(equalize))
		return res
	}
	runOverlapped := func(h *apps.Histogram, m *machine.Machine, equalize machine.Op) machine.Result {
		h.Init(m)
		var res machine.Result
		res.Add(m.RunOp(machine.LoadStream("hist-load", h.DataBase, h.N)))
		res.Add(m.RunOp(machine.IntKernel("hist-map", float64(h.N), float64(2*h.N))))
		sa := machine.ScatterAdd("hist-sa", mem.AddI64, workload.IndicesToAddrs(h.Idx, h.BinBase),
			[]mem.Word{mem.I64(1)})
		sa.Async = true
		res.Add(m.RunOp(sa))
		res.Add(m.RunOp(equalize)) // runs while the scatter-add drains
		res.Add(m.RunOp(machine.Fence()))
		return res
	}
	schedules := []struct {
		label, what string
		run         func(*apps.Histogram, *machine.Machine, machine.Op) machine.Result
	}{
		{"sequential", "ablation overlap sequential", runSequential},
		{"async scatter-add + overlapped kernel", "ablation overlap async", runOverlapped},
	}
	t.Rows = mapN(o, len(schedules), func(i int) []string {
		h := apps.NewHistogram(n, 2048, o.seed(0xAB6))
		equalize := machine.Kernel("equalize", float64(8*n), float64(2*n))
		m, _ := o.newMachine(machine.DefaultConfig())
		res := schedules[i].run(h, m, equalize)
		mustVerify(m, h, schedules[i].what)
		return []string{schedules[i].label, f(us(res.Cycles))}
	})
	return t
}

// AblationWritePolicy compares write-allocate (the baseline) against
// write-no-allocate with a write-combining buffer on a pure result-stream
// write (the scatter phase of §3.1): full-line combining eliminates the
// fill traffic that write-allocate pays.
func AblationWritePolicy(o Options) Table {
	return o.checkpointed("ablation-write-policy", ablationWritePolicy)
}

func ablationWritePolicy(o Options) Table {
	t := Table{
		Title:  "Ablation: cache write policy on a 32K-word result stream",
		Header: []string{"policy", "us", "dram_reads", "dram_writes"},
	}
	n := o.scaled(32768)
	policies := []bool{false, true}
	t.Rows = mapN(o, len(policies), func(i int) []string {
		noAlloc := policies[i]
		vals := make([]mem.Word, n)
		for i := range vals {
			vals[i] = mem.F64(float64(i))
		}
		cfg := machine.DefaultConfig()
		cfg.Cache.WriteNoAllocate = noAlloc
		m, _ := o.newMachine(cfg)
		res := m.RunOp(machine.StoreStream("result", 0, vals))
		m.FlushCaches()
		for i := 0; i < n; i += n / 16 {
			if m.Store().LoadF64(mem.Addr(i)) != float64(i) {
				panic("exp: write-policy ablation produced wrong data")
			}
		}
		_, _, ds := m.ComponentStats()
		label := "write-allocate"
		if noAlloc {
			label = "write-no-allocate + WCB"
		}
		return []string{label, f(us(res.Cycles)), d(ds.Reads), d(ds.Writes)}
	})
	return t
}

// AblationHierarchical evaluates the paper's §5 future-work proposal:
// arranging the nodes in a logical hierarchy so multi-node combining occurs
// in logarithmic instead of linear complexity. The workload is a hot-owner
// trace (one node owns every target bin), where linear sum-back funnels all
// other nodes' partial lines into the owner's single network port.
func AblationHierarchical(o Options) Table {
	return o.checkpointed("ablation-hierarchical", ablationHierarchical)
}

func ablationHierarchical(o Options) Table {
	t := Table{
		Title:  "Ablation: linear vs hierarchical (logarithmic) multi-node combining (hot-owner histogram)",
		Header: []string{"sum-back", "nodes", "GB/s"},
		Notes:  []string{"the paper proposes hierarchical combining as future work (§5)"},
	}
	const rng = 128
	n := o.scaled(65536)
	refs := make([]multinode.Ref, n)
	idx := workload.UniformIndices(n, rng, o.seed(0xAB7))
	for i, x := range idx {
		refs[i] = multinode.Ref{Addr: mem.Addr(x), Val: mem.I64(1)}
	}
	span := mem.Addr(rng+mem.LineWords) &^ (mem.LineWords - 1) // node 0 owns all bins
	type point struct {
		hier  bool
		nodes int
	}
	var points []point
	for _, hier := range []bool{false, true} {
		for _, nodes := range []int{2, 4, 8} {
			points = append(points, point{hier, nodes})
		}
	}
	// refs is shared read-only; each point builds its own System.
	t.Rows = mapN(o, len(points), func(i int) []string {
		p := points[i]
		cfg := multinode.DefaultConfig(p.nodes, 1, span)
		cfg.Topology = multinode.FlatCombining()
		if p.hier {
			cfg.Topology = multinode.Hypercube()
		}
		s, _ := o.newSystem(cfg, mem.AddI64)
		res := s.RunTrace(refs)
		label := "linear"
		if p.hier {
			label = "hierarchical"
		}
		if err := s.Verify(refs); err != nil {
			panic(fmt.Sprintf("exp: ablation hierarchical %s nodes=%d failed verification: %v", label, p.nodes, err))
		}
		return []string{label, d(uint64(p.nodes)), f(res.GBps())}
	})
	return t
}

// AblationCombiningStore sweeps the combining-store size on the full
// machine (the paper sweeps it only on the simplified memory of §4.4).
func AblationCombiningStore(o Options) Table {
	return o.checkpointed("ablation-combining-store", ablationCombiningStore)
}

func ablationCombiningStore(o Options) Table {
	t := Table{
		Title:  "Ablation: combining-store entries on the full machine (histogram n=16384, range 64K)",
		Header: []string{"entries", "us"},
	}
	n := o.scaled(16384)
	sizes := []int{2, 4, 8, 16, 32, 64}
	t.Rows = mapN(o, len(sizes), func(i int) []string {
		entries := sizes[i]
		cfg := machine.DefaultConfig()
		cfg.SA.Entries = entries
		m, _ := o.newMachine(cfg)
		h := apps.NewHistogram(n, 65536, o.seed(0xAB5))
		res := h.RunHW(m)
		mustVerify(m, h, "ablation cs histogram")
		return []string{d(uint64(entries)), f(us(res.Cycles))}
	})
	return t
}

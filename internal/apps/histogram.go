// Package apps implements the paper's three evaluation applications (§4.1)
// on the simulated machine, each in the hardware scatter-add variant and
// the software alternatives the paper measures:
//
//   - Histogram: uniform random integers binned with scatter-add, versus
//     sort + segmented scan and versus privatization (Figures 6, 7, 8).
//   - Sparse matrix-vector multiply: compressed sparse row (gather based)
//     versus element-by-element with software or hardware scatter-add
//     (Figure 9).
//   - Molecular dynamics: a GROMACS-like water non-bonded force kernel with
//     duplicated computation (no scatter-add), software scatter-add, and
//     hardware scatter-add (Figure 10).
//
// Every variant produces its real numeric result in the machine's memory;
// Verify methods compare against a sequential reference, so each timing
// run doubles as an end-to-end correctness check.
package apps

import (
	"fmt"

	"scatteradd/internal/machine"
	"scatteradd/internal/mem"
	"scatteradd/internal/softscatter"
	"scatteradd/internal/stream"
	"scatteradd/internal/workload"
)

// Histogram is the binning workload: count how many input elements map to
// each bin (§1).
type Histogram struct {
	N     int   // input elements
	Range int   // number of bins (index range)
	Idx   []int // the dataset (bin index per element)
	Ref   []int64

	BinBase  mem.Addr // bins occupy [BinBase, BinBase+Range)
	DataBase mem.Addr // the dataset image in memory
}

// NewHistogram builds a histogram input of n uniform indices over rangeSize
// bins.
func NewHistogram(n, rangeSize int, seed uint64) *Histogram {
	idx := workload.UniformIndices(n, rangeSize, seed)
	// Keep the dataset image well clear of the bins (separate lines/pages).
	dataBase := mem.Addr((rangeSize + 4096) &^ 4095)
	return &Histogram{
		N: n, Range: rangeSize, Idx: idx,
		Ref:      workload.HistogramReference(idx, rangeSize),
		BinBase:  0,
		DataBase: dataBase,
	}
}

// Clone returns a deep copy of the workload, sharing no slices with the
// original, so concurrent runs on separate machines cannot race. Run methods
// never mutate the workload (see TestWorkloadsImmutableAcrossRuns), but the
// parallel experiment runner clones anyway to make isolation structural.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.Idx = append([]int(nil), h.Idx...)
	c.Ref = append([]int64(nil), h.Ref...)
	return &c
}

// Init writes the dataset into the machine's memory image (bins start at
// zero, which a fresh store already provides).
func (h *Histogram) Init(m *machine.Machine) {
	data := make([]int64, h.N)
	for i, x := range h.Idx {
		data[i] = int64(x)
	}
	m.Store().WriteI64Slice(h.DataBase, data)
}

// binAddrs returns the scatter-add target addresses.
func (h *Histogram) binAddrs() []mem.Addr {
	return workload.IndicesToAddrs(h.Idx, h.BinBase)
}

// loadAndMap returns the common prefix of every variant: stream the dataset
// in and run the mapping kernel that turns data values into bin indices.
func (h *Histogram) loadAndMap() []machine.Op {
	return []machine.Op{
		machine.LoadStream("hist-load", h.DataBase, h.N),
		machine.IntKernel("hist-map", float64(h.N), float64(2*h.N)),
	}
}

// RunHW computes the histogram with the hardware scatter-add
// (scatterAdd(histogram, data, 1) from §1).
func (h *Histogram) RunHW(m *machine.Machine) machine.Result {
	h.Init(m)
	var total machine.Result
	for _, op := range h.loadAndMap() {
		total.Add(m.RunOp(op))
	}
	total.Add(m.RunOp(machine.ScatterAdd("hist-sa", mem.AddI64, h.binAddrs(), []mem.Word{mem.I64(1)})))
	return total
}

// RunHWOverlapped computes the histogram with the hardware scatter-add,
// software-pipelined in chunks: while chunk i's scatter-add drains in the
// memory system (issued asynchronously on one address generator), chunk
// i+1's data is loaded and mapped on the other — the overlap the paper
// describes in §1 ("the processor's main execution unit can continue
// running the program, while the sums are being updated in memory").
// chunk 0 selects a default of 4096 elements.
func (h *Histogram) RunHWOverlapped(m *machine.Machine, chunk int) machine.Result {
	h.Init(m)
	addrs := h.binAddrs()
	return stream.Pipeline(m, h.N, chunk, stream.GatherComputeScatterAdd(
		func(start, end int) machine.Op {
			return machine.LoadStream("hist-load", h.DataBase+mem.Addr(start), end-start)
		},
		func(count int) machine.Op {
			return machine.IntKernel("hist-map", float64(count), float64(2*count))
		},
		func(start, end int) machine.Op {
			return machine.ScatterAdd("hist-sa", mem.AddI64, addrs[start:end], []mem.Word{mem.I64(1)})
		},
	))
}

// RunSortScan computes the histogram with the software sort + segmented
// scan method in batches (0 selects the default batch size).
func (h *Histogram) RunSortScan(m *machine.Machine, batch int) machine.Result {
	h.Init(m)
	var total machine.Result
	for _, op := range h.loadAndMap() {
		total.Add(m.RunOp(op))
	}
	total.Add(softscatter.SortScan(m, mem.AddI64, h.binAddrs(), []mem.Word{mem.I64(1)}, batch))
	return total
}

// RunPrivatization computes the histogram with the privatization method
// (0 selects the default register budget).
func (h *Histogram) RunPrivatization(m *machine.Machine, privateBins int) machine.Result {
	h.Init(m)
	// Privatization iterates the dataset once per register group; the load
	// and map are inside Privatize's per-pass cost.
	return softscatter.Privatize(m, mem.AddI64, h.binAddrs(), []mem.Word{mem.I64(1)},
		h.BinBase, h.Range, h.DataBase, privateBins)
}

// Verify checks every bin in the machine's memory against the sequential
// reference, reading the bins 4096 words at a time into one buffer (a bin
// on a page the run never wrote reads 0).
func (h *Histogram) Verify(m *machine.Machine) error {
	m.FlushCaches()
	const chunk = 4096
	buf := make([]mem.Word, min(len(h.Ref), chunk))
	for base := 0; base < len(h.Ref); base += chunk {
		got := buf[:min(len(h.Ref)-base, chunk)]
		m.Store().LoadRange(h.BinBase+mem.Addr(base), got)
		for i, w := range got {
			if b := base + i; mem.AsI64(w) != h.Ref[b] {
				return fmt.Errorf("histogram: bin %d = %d, want %d", b, mem.AsI64(w), h.Ref[b])
			}
		}
	}
	return nil
}

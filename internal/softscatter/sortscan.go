package softscatter

import (
	"fmt"

	"scatteradd/internal/machine"
	"scatteradd/internal/mem"
)

// DefaultBatch is the batch size the paper found best on its simulated
// machine: "a batch size of 256 elements achieved the highest performance.
// Longer batches suffer from the O(n log n) scaling of sort, while smaller
// batches do not amortize the latency of starting a stream operation."
const DefaultBatch = 256

// kernel cost-model constants. Each bitonic stage shuffles (addr, value)
// records across clusters, so every stage is a separate kernel launch
// reading and writing the batch in the SRF: 4*B words of SRF traffic and 2
// ops per compare-exchange per stage. The per-stage launch overhead is what
// makes small batches unprofitable (the paper's observation that batches
// must be large enough "to amortize the latency of starting a stream
// operation").
const (
	sortSRFWordsPerElemPerStage = 4
	opsPerCompare               = 2
)

func log2(n int) int {
	lg := 0
	for v := 1; v < n; v <<= 1 {
		lg++
	}
	return lg
}

// SortKernelOps models the bitonic sort of a b-element batch in the SRF:
// one kernel per compare-exchange stage.
func SortKernelOps(b int) []machine.Op {
	stages := BitonicStages(b)
	ops := make([]machine.Op, stages)
	for s := range ops {
		// Compare-exchanges are integer/key operations, not FP (the paper's
		// FP Operations metric for the software variants confirms sorting
		// does not count as FP work).
		ops[s] = machine.IntKernel(
			fmt.Sprintf("sort[%d] stage %d", b, s),
			float64(b/2*opsPerCompare),
			float64(sortSRFWordsPerElemPerStage*b),
		)
	}
	return ops
}

// ScanKernelOp models the segmented scan of a b-element sorted batch; its
// combines are FP operations when the combine kind is floating point.
func ScanKernelOp(b int, kind mem.Kind) machine.Op {
	name := fmt.Sprintf("segscan[%d]", b)
	if kind.IsFP() {
		return machine.Kernel(name, float64(ScanOps(b)), float64(4*b))
	}
	return machine.IntKernel(name, float64(ScanOps(b)), float64(4*b))
}

// ApplyKernelOp models combining u gathered memory values with u segment
// sums.
func ApplyKernelOp(u int, kind mem.Kind) machine.Op {
	name := fmt.Sprintf("apply[%d]", u)
	if kind.IsFP() {
		return machine.Kernel(name, float64(u), float64(3*u))
	}
	return machine.IntKernel(name, float64(u), float64(3*u))
}

// SortScan performs a software scatter-add of vals into addrs on machine m
// using the sort-and-segmented-scan method, in batches of the given size
// (0 selects DefaultBatch). vals of length 1 broadcasts a scalar. The
// result values land in m's memory exactly as a hardware scatter-add would
// (up to floating-point reassociation); the returned Result carries the
// cycles, FP operations and memory references the software method consumed.
func SortScan(m *machine.Machine, kind mem.Kind, addrs []mem.Addr, vals []mem.Word, batch int) machine.Result {
	if !kind.IsScatterAdd() {
		panic(fmt.Sprintf("softscatter: SortScan with non-RMW kind %v", kind))
	}
	if kind.IsFetch() {
		panic("softscatter: software method cannot implement fetch variants")
	}
	if len(vals) != 1 && len(vals) != len(addrs) {
		panic(fmt.Sprintf("softscatter: %d addrs, %d vals", len(addrs), len(vals)))
	}
	if batch <= 0 {
		batch = DefaultBatch
	}
	var total machine.Result
	for start := 0; start < len(addrs); start += batch {
		end := start + batch
		if end > len(addrs) {
			end = len(addrs)
		}
		b := end - start
		pairs := make([]Pair, b)
		for i := 0; i < b; i++ {
			v := vals[0]
			if len(vals) > 1 {
				v = vals[start+i]
			}
			pairs[i] = Pair{Addr: addrs[start+i], Val: v}
		}
		// Functional: sort the batch and reduce each address segment.
		padded, orig := PadPow2(pairs)
		BitonicSortPairs(padded)
		uAddrs, uSums := SegmentedReduce(padded[:orig], kind)

		// Timed: sort stages, scan kernel, then the read-modify-write of the
		// distinct addresses through ordinary gather/scatter.
		for _, op := range SortKernelOps(len(padded)) {
			total.Add(m.RunOp(op))
		}
		total.Add(m.RunOp(ScanKernelOp(b, kind)))

		gathered := make(map[mem.Addr]mem.Word, len(uAddrs))
		g := machine.Gather("swsa-gather", uAddrs)
		g.OnResp = func(r mem.Response) { gathered[r.Addr] = r.Val }
		total.Add(m.RunOp(g))

		total.Add(m.RunOp(ApplyKernelOp(len(uAddrs), kind)))
		newVals := make([]mem.Word, len(uAddrs))
		for i, a := range uAddrs {
			newVals[i] = mem.Combine(kind, gathered[a], uSums[i])
		}
		total.Add(m.RunOp(machine.Scatter("swsa-scatter", uAddrs, newVals)))
	}
	// The combining operations of the scan and apply kernels are FP
	// operations when the kind is floating point; the machine already
	// counted kernel flops, so nothing further to add here.
	return total
}

package machine

import (
	"testing"

	"scatteradd/internal/mem"
)

// TestTickSteadyStateAllocationFree pins the data-layout contract of the
// simulation hot path: with a scatter-add stream in flight, a machine tick
// allocates nothing once scratch buffers are warm. The scatter-add unit's
// chain scratch and slice-backed active set exist for this property —
// before that pass, every tick with a pending chain allocated a fresh
// slice. Benchmarks report the same number, but only under -bench; this
// keeps the guard in every `go test` run.
func TestTickSteadyStateAllocationFree(t *testing.T) {
	m := New(DefaultConfig())
	const n = 1 << 14
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = mem.Addr((i * 61) % 8192)
	}
	op := ScatterAdd("alloc", mem.AddI64, addrs, []mem.Word{mem.I64(1)})
	op.Async = true
	m.RunOp(op)
	// Warm every queue, chain buffer, and scratch slice to capacity.
	for i := 0; i < 4096; i++ {
		m.tick()
	}
	avg := testing.AllocsPerRun(2048, func() {
		if len(m.active) == 0 {
			m.RunOp(op)
		}
		m.tick()
	})
	// RunOp refills allocate; ticks must not. Refills are rare (one per
	// ~n issued requests), so anything above a sliver of an alloc per
	// tick means the hot path regressed.
	if avg > 0.01 {
		t.Fatalf("steady-state tick allocates %.3f allocs/op, want ~0", avg)
	}
}

// TestRunOpSteadyStateAllocationFree pins the op-grain arena contract
// (ROADMAP: "arena-allocate requests"): once the stream slab, the prebound
// runUntil predicates, and every component scratch buffer are warm, a whole
// synchronous scatter-add RunOp — thousands of requests through issue,
// banks, DRAM, and drain — performs no per-stream or per-wait allocation.
func TestRunOpSteadyStateAllocationFree(t *testing.T) {
	m := New(DefaultConfig())
	const n = 2048
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = mem.Addr((i * 61) % 4096)
	}
	op := ScatterAdd("arena", mem.AddI64, addrs, []mem.Word{mem.I64(1)})
	for i := 0; i < 3; i++ {
		m.RunOp(op) // warm slabs, queues, MSHR maps, page map
	}
	avg := testing.AllocsPerRun(32, func() { m.RunOp(op) })
	if avg > 0.01 {
		t.Fatalf("steady-state RunOp allocates %.3f allocs/op, want ~0", avg)
	}
}

// TestJumpLoopAllocationFree pins the zero-allocation property of the
// machine's jump loop: once warm, kernels and DRAM-missing gathers, mostly
// crossed in jumps, allocate nothing.
func TestJumpLoopAllocationFree(t *testing.T) {
	step := deadStretches()
	for i := 0; i < 5; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(20, func() { step() }); avg != 0 {
		t.Fatalf("jump loop allocates %.2f times per kernel and gather", avg)
	}
}

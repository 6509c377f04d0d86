package machine

import (
	"testing"

	"scatteradd/internal/mem"
)

// BenchmarkEngineTick measures the full-machine per-cycle cost — address
// generation, 8 scatter-add units, 8 cache banks, and 16 DRAM channels —
// while a scatter-add stream is in flight. This is the CI gate benchmark:
// the performance-counter layer increments plain fields on this path, and a
// regression here beyond noise means the counters are no longer free.
func BenchmarkEngineTick(b *testing.B) {
	m := New(DefaultConfig())
	const n = 1 << 16
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = mem.Addr((i * 61) % 8192)
	}
	op := ScatterAdd("bench", mem.AddI64, addrs, []mem.Word{mem.I64(1)})
	op.Async = true
	m.RunOp(op)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.active) == 0 {
			b.StopTimer()
			m.RunOp(op)
			b.StartTimer()
		}
		m.tick()
	}
}

// BenchmarkEngineLegacyKernel measures legacy per-cycle stepping of a
// Table-1 machine whose memory system is idle: each op is one compute
// kernel of 65,536 cycles, every one of them stepped, so each cycle asks
// the 8 scatter-add units and 8 cache banks their quiet checks and the
// DRAM its two counts. It is what quiet components cost the per-cycle
// reference that fast-forward is held to.
func BenchmarkEngineLegacyKernel(b *testing.B) {
	cfg := DefaultConfig()
	cfg.LegacyStepping = true
	m := New(cfg)
	op := Kernel("bench", float64(1<<16-cfg.KernelStartup)*cfg.PeakFlopsPerCycle(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := m.RunOp(op); r.Cycles != 1<<16 {
			b.Fatalf("kernel took %d cycles, want %d", r.Cycles, 1<<16)
		}
	}
}

// BenchmarkEngineTickSampled measures the same path with a 1k-cycle
// timeline sampler attached, bounding the cost of `-stats` timelines.
func BenchmarkEngineTickSampled(b *testing.B) {
	m := New(DefaultConfig())
	const n = 1 << 16
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = mem.Addr((i * 61) % 8192)
	}
	op := ScatterAdd("bench", mem.AddI64, addrs, []mem.Word{mem.I64(1)})
	op.Async = true
	m.RunOp(op)
	tl := m.StartTimeline(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.active) == 0 {
			b.StopTimer()
			m.RunOp(op)
			b.StartTimer()
		}
		m.tick()
	}
	b.StopTimer()
	m.StopTimeline()
	_ = tl
}

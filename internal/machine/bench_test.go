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

// deadStretches returns a step of a Table-1 machine that runs one kernel
// of 4,096 cycles and then a gather of 16 lines that all miss in the cache
// and wait on DRAM: a program made mostly of dead stretches, crossed by the
// machine's jump loop. Each gather reads the next of five line sets that
// map onto the same cache sets, so with four ways every read misses once
// the first five steps have warmed the sets. The step reports the gather's
// cache misses.
func deadStretches() func() uint64 {
	cfg := DefaultConfig()
	m := New(cfg)
	kernel := Kernel("compute", float64(4096-cfg.KernelStartup)*cfg.PeakFlopsPerCycle(), 0)
	// Lines as many lines apart as the cache has sets share a bank and a set.
	stride := mem.Addr(cfg.Cache.TotalLines/cfg.Cache.Ways) * mem.LineWords
	var gathers [5]Op
	for g := range gathers {
		addrs := make([]mem.Addr, 16)
		for i := range addrs {
			addrs[i] = mem.Addr(g)*stride + mem.Addr(i)*mem.LineWords
		}
		gathers[g] = Gather("miss", addrs)
	}
	next := 0
	return func() uint64 {
		m.RunOp(kernel)
		before := m.cacheStats().Misses
		m.RunOp(gathers[next])
		next = (next + 1) % len(gathers)
		return m.cacheStats().Misses - before
	}
}

// BenchmarkEngineFastForward measures the machine's jump loop over a
// program of dead stretches (deadStretches). Steady state must be
// allocation free, which the CI bench run checks through the reported
// allocs/op.
func BenchmarkEngineFastForward(b *testing.B) {
	step := deadStretches()
	for i := 0; i < 5; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if misses := step(); misses != 16 {
			b.Fatalf("gather missed %d times, want 16", misses)
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

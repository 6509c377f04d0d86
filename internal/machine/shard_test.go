package machine

import (
	"fmt"
	"reflect"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// Config.Shards and Machine.Close are deprecated no-ops: a machine ticks
// on its caller's goroutine and holds nothing to release. The benchmark
// harness still sets the one and calls the other, so the tests in this file
// pin that neither moves a byte of any clock, result, counter, span report
// or memory image. They go away together with the two members.

// fig6Program is a histogram-shaped workload (figure 6): one large
// scatter-add over a hot bin range, bracketed by a load of the input and a
// readback of the bins. Collisions force combining-store residency.
func fig6Program(n, bins int) []Op {
	addrs := make([]mem.Addr, n)
	vals := make([]mem.Word, n)
	state := uint64(0xF166)
	for i := range addrs {
		state = state*6364136223846793005 + 1442695040888963407
		addrs[i] = mem.Addr(state % uint64(bins))
		vals[i] = mem.I64(int64(i%5 + 1))
	}
	return []Op{
		LoadStream("load-data", 1<<16, n),
		ScatterAdd("histogram", mem.AddI64, addrs, vals),
		Fence(),
	}
}

// fig10Program is a molecular-dynamics-shaped workload (figure 10): gather
// positions, compute forces in a kernel, scatter-add them back
// asynchronously under the next kernel, then fence — the async overlap
// keeps streams in flight across op boundaries.
func fig10Program(n, sites int) []Op {
	gAddrs := make([]mem.Addr, n)
	sAddrs := make([]mem.Addr, n)
	vals := make([]mem.Word, n)
	state := uint64(0xF1010)
	for i := range gAddrs {
		state = state*6364136223846793005 + 1442695040888963407
		gAddrs[i] = mem.Addr(state % uint64(sites))
		state = state*6364136223846793005 + 1442695040888963407
		sAddrs[i] = mem.Addr(state % uint64(sites))
		vals[i] = mem.F64(float64(i%13) * 0.5)
	}
	sa := ScatterAdd("forces", mem.AddF64, sAddrs, vals)
	sa.Async = true
	return []Op{
		Gather("positions", gAddrs),
		Kernel("interactions", 80_000, 4096),
		sa,
		Kernel("next-block", 60_000, 4096),
		Fence(),
	}
}

// shardTrace runs prog on a fresh machine and captures everything the
// Shards setting must not change: the clock after every op, per-op
// results, the final counter snapshot, the span report, and the functional
// memory image.
func shardTrace(cfg Config, prog []Op, words int) (nows []uint64, results []Result, snap stats.Snapshot, rep span.Report, image []int64) {
	m := New(cfg)
	tr := span.New(4)
	m.SetSpanTracer(tr)
	for _, op := range prog {
		results = append(results, m.RunOp(op))
		nows = append(nows, m.Now())
	}
	m.FlushCaches()
	return nows, results, m.StatsSnapshot(), span.Aggregate(tr.Ops()), m.Store().ReadI64Slice(0, words)
}

// TestShardedChaosExact: figure-6- and figure-10-shaped workloads, fault
// injection on and off, both stepping modes, with Shards at 1, 3 and 4.
// Everything observable — clocks, per-op results, counters, span reports,
// memory — must be byte-identical.
func TestShardedChaosExact(t *testing.T) {
	progs := []struct {
		name  string
		prog  []Op
		words int
	}{
		{"fig6-histogram", fig6Program(6_000, 512), 512},
		{"fig10-moldyn", fig10Program(4_000, 768), 768},
	}
	fc := fault.DefaultChaos()
	fc.DRAMStallRate = 0.05
	fc.DRAMWindowEvery = 2_000
	fc.DRAMWindowSpan = 100
	fc.CSCorruptRate = 0.01
	fc.FUErrorRate = 0.01
	for _, p := range progs {
		for _, legacy := range []bool{false, true} {
			for _, faults := range []bool{true, false} {
				name := fmt.Sprintf("%s/legacy=%v/faults=%v", p.name, legacy, faults)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Cache.TotalLines = 256
					cfg.KernelStartup = 8
					cfg.MemOpStartup = 4
					cfg.LegacyStepping = legacy
					if faults {
						cfg.Faults = fc
					}
					cfg.Shards = 1
					baseNows, baseRes, baseSnap, baseRep, baseMem := shardTrace(cfg, p.prog, p.words)
					for _, shards := range []int{3, 4} {
						cfg.Shards = shards
						nows, res, snap, rep, img := shardTrace(cfg, p.prog, p.words)
						if !reflect.DeepEqual(nows, baseNows) {
							t.Fatalf("shards=%d: per-op clocks diverge\n  1: %v\n  %d: %v", shards, baseNows, shards, nows)
						}
						if !reflect.DeepEqual(res, baseRes) {
							t.Fatalf("shards=%d: per-op results diverge", shards)
						}
						if !reflect.DeepEqual(snap, baseSnap) {
							t.Fatalf("shards=%d: counter snapshots diverge", shards)
						}
						if !reflect.DeepEqual(rep, baseRep) {
							t.Fatalf("shards=%d: span reports diverge:\n%+v\nvs\n%+v", shards, rep, baseRep)
						}
						if !reflect.DeepEqual(img, baseMem) {
							t.Fatalf("shards=%d: memory images diverge", shards)
						}
					}
				})
			}
		}
	}
}

// TestShardCountResolution: every Shards value — zero, in range, above the
// bank count — on every memory layout, including the cache-less uniform
// memory and a channel count that is not a multiple of the bank count,
// runs exactly like the same config with Shards left at zero.
func TestShardCountResolution(t *testing.T) {
	base := DefaultConfig() // 8 banks, 16 channels
	base.MemOpStartup = 4
	cases := []struct {
		name   string
		layout func(*Config)
		shards int
	}{
		{"zero", func(*Config) {}, 0},
		{"one", func(*Config) {}, 1},
		{"four", func(*Config) {}, 4},
		{"clamped-to-banks", func(*Config) {}, 64},
		{"uniform-ignores", func(c *Config) {
			c.UniformMem = &UniformMemConfig{Latency: 64, Interval: 2}
		}, 4},
		{"channels-not-multiple", func(c *Config) {
			c.DRAM.Channels = 12
		}, 4},
	}
	prog := []Op{chaosOp(2048, 256), Fence()}
	for _, tc := range cases {
		cfg := base
		tc.layout(&cfg)
		wantNows, wantRes, wantSnap, _, wantMem := shardTrace(cfg, prog, 256)
		cfg.Shards = tc.shards
		nows, res, snap, _, img := shardTrace(cfg, prog, 256)
		if !reflect.DeepEqual(nows, wantNows) || !reflect.DeepEqual(res, wantRes) ||
			!reflect.DeepEqual(snap, wantSnap) || !reflect.DeepEqual(img, wantMem) {
			t.Errorf("%s: Shards=%d diverges from the zero value", tc.name, tc.shards)
		}
	}
}

// TestShardedMachinePoolLifecycle: Close is a no-op anywhere — after a
// drained synchronous op, after a fence, and with an async stream still
// issuing — and the machine stays usable after it, on the same clocks as a
// twin that never calls Close.
func TestShardedMachinePoolLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemOpStartup = 4
	cfg.Shards = 4
	op := chaosOp(2048, 256)
	async := op
	async.Async = true
	prog := []Op{op, async, Fence(), async, Fence()}
	run := func(closing bool) ([]uint64, stats.Snapshot) {
		m := New(cfg)
		var nows []uint64
		for _, o := range prog {
			m.RunOp(o)
			if closing {
				m.Close()
			}
			nows = append(nows, m.Now())
		}
		return nows, m.StatsSnapshot()
	}
	wantNows, wantSnap := run(false)
	nows, snap := run(true)
	if !reflect.DeepEqual(nows, wantNows) {
		t.Fatalf("Close moved the clocks:\n%v\nvs\n%v", nows, wantNows)
	}
	if !reflect.DeepEqual(snap, wantSnap) {
		t.Fatal("Close changed the counters")
	}
}

// TestShardedTickSteadyStateAllocationFree is TestTickSteadyStateAllocationFree
// with Shards set and Close called: neither may put an allocation back on
// the hot path.
func TestShardedTickSteadyStateAllocationFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	m := New(cfg)
	const n = 1 << 14
	addrs := make([]mem.Addr, n)
	for i := range addrs {
		addrs[i] = mem.Addr((i * 61) % 8192)
	}
	op := ScatterAdd("alloc", mem.AddI64, addrs, []mem.Word{mem.I64(1)})
	op.Async = true
	m.RunOp(op)
	for i := 0; i < 4096; i++ {
		m.tick()
	}
	avg := testing.AllocsPerRun(2048, func() {
		if len(m.active) == 0 {
			m.RunOp(op)
		}
		m.tick()
	})
	if avg > 0.01 {
		t.Fatalf("steady-state tick with Shards set allocates %.3f allocs/op, want ~0", avg)
	}
	m.Close()
}

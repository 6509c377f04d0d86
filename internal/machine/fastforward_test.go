package machine

import (
	"strings"
	"testing"

	"scatteradd/internal/mem"
	"scatteradd/internal/stats"
)

// ffProgram is a mixed workload exercising every clock advance path: idle
// (kernels), AG-claim waits, sync completion waits, async overlap, and
// fence drain.
func ffProgram() []Op {
	const n = 600
	addrs := make([]mem.Addr, n)
	vals := make([]mem.Word, n)
	seed := uint64(99)
	for i := range addrs {
		seed = seed*6364136223846793005 + 1442695040888963407
		addrs[i] = mem.Addr(seed % 512)
		vals[i] = mem.I64(1)
	}
	sa := ScatterAdd("sa", mem.AddI64, addrs, vals)
	saAsync := sa
	saAsync.Name = "sa-async"
	saAsync.Async = true
	st := make([]mem.Word, 256)
	for i := range st {
		st[i] = mem.F64(float64(i))
	}
	return []Op{
		Kernel("warmup", 50000, 0),
		sa,
		StoreStream("store", 4096, st),
		saAsync,
		Kernel("overlap", 100000, 0),
		Fence(),
		LoadStream("load", 4096, len(st)),
		Kernel("tail", 3000, 128),
	}
}

// ffTrace runs the program op by op on a fresh machine and records the
// machine clock after every op plus the op results.
func ffTrace(cfg Config) (*Machine, []uint64, []Result) {
	m := New(cfg)
	var nows []uint64
	var results []Result
	for _, op := range ffProgram() {
		results = append(results, m.RunOp(op))
		nows = append(nows, m.Now())
	}
	m.FlushCaches()
	nows = append(nows, m.Now())
	return m, nows, results
}

// TestMachineFastForwardMatchesLegacy is the machine-level cycle-exactness
// check: the same program on the same configuration must leave the clock at
// the same cycle after every op, return identical per-op results, produce
// identical memory contents, and identical performance counters whether the
// machine fast-forwards dead stretches or ticks through them.
func TestMachineFastForwardMatchesLegacy(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"cached", smallConfig()},
		{"uniform", uniformConfig(64, 2)},
		// An access interval above the latency: a read completes while the
		// next queued access waits for its issue slot, so only the unit's
		// NextEvent reports the completion.
		{"uniform-slow-issue", uniformConfig(4, 16)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fastCfg, slowCfg := tc.cfg, tc.cfg
			slowCfg.LegacyStepping = true
			fm, fNows, fRes := ffTrace(fastCfg)
			sm, sNows, sRes := ffTrace(slowCfg)
			for i := range fNows {
				if fNows[i] != sNows[i] {
					t.Fatalf("clock diverges after op %d: fast-forward %d, legacy %d", i, fNows[i], sNows[i])
				}
			}
			for i := range fRes {
				if fRes[i] != sRes[i] {
					t.Errorf("result of op %d differs: fast-forward %+v, legacy %+v", i, fRes[i], sRes[i])
				}
			}
			fGot := fm.Store().ReadI64Slice(0, 512)
			sGot := sm.Store().ReadI64Slice(0, 512)
			for b := range fGot {
				if fGot[b] != sGot[b] {
					t.Fatalf("memory word %d differs: %d vs %d", b, fGot[b], sGot[b])
				}
			}
			fSnap, sSnap := fm.StatsSnapshot(), sm.StatsSnapshot()
			if len(fSnap.Entries) != len(sSnap.Entries) {
				t.Fatalf("snapshot sizes differ: %d vs %d", len(fSnap.Entries), len(sSnap.Entries))
			}
			for i := range fSnap.Entries {
				if fSnap.Entries[i] != sSnap.Entries[i] {
					t.Errorf("counter %q differs: fast-forward %d, legacy %d",
						fSnap.Entries[i].Key, fSnap.Entries[i].Val, sSnap.Entries[i].Val)
				}
			}
		})
	}
}

// TestIdleFastForwardExactCycles checks the rewritten idle path (kernels
// run through runUntil) advances exactly the kernel's cycle cost on an
// otherwise-quiet machine, fast-forwarded or not.
func TestIdleFastForwardExactCycles(t *testing.T) {
	for _, legacy := range []bool{false, true} {
		cfg := smallConfig()
		cfg.LegacyStepping = legacy
		m := New(cfg)
		before := m.Now()
		res := m.RunOp(Kernel("k", 100000, 0))
		if got := m.Now() - before; got != res.Cycles {
			t.Fatalf("legacy=%v: clock advanced %d, result says %d", legacy, got, res.Cycles)
		}
		if res.Cycles == 0 {
			t.Fatalf("legacy=%v: kernel charged no cycles", legacy)
		}
	}
}

// TestPerCycleSampleLaw checks, in both stepping modes, the law the
// change-point occupancy counting must keep: every per-cycle histogram holds
// exactly one sample per elapsed cycle, no unit's FU is busy for more cycles
// than elapsed, and once the machine has drained, an idle stretch adds one
// level-0 sample per cycle to every such histogram. The differ compares the
// two stepping modes with each other and cannot see a sampling fault they
// share; this law can. The write-no-allocate program flushes its
// write-combining buffers between two ops.
func TestPerCycleSampleLaw(t *testing.T) {
	noAlloc := smallConfig()
	noAlloc.Cache.WriteNoAllocate = true
	seq := make([]mem.Word, 300)
	for i := range seq {
		seq[i] = mem.I64(int64(i))
	}
	scattered := make([]mem.Addr, 200)
	for i := range scattered {
		scattered[i] = mem.Addr(8192 + (i*37)%1024)
	}
	wcbProgram := []Op{
		StoreStream("store", 4096, seq),
		Scatter("scatter", scattered, seq[:len(scattered)]),
		Fence(),
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		prog  []Op
		flush bool
	}{
		{"banked", smallConfig(), ffProgram(), false},
		{"uniform-slow-issue", uniformConfig(4, 16), ffProgram(), false},
		{"write-no-allocate", noAlloc, wcbProgram, true},
	} {
		for _, legacy := range []bool{false, true} {
			cfg := tc.cfg
			cfg.LegacyStepping = legacy
			m := New(cfg)
			for _, op := range tc.prog {
				m.RunOp(op)
				if tc.flush {
					m.FlushCaches()
				}
			}
			m.RunOp(Fence())
			before := m.StatsSnapshot()
			checkPerCycleLaw(t, tc.name, before, m.Now())
			start := m.Now()
			m.RunOp(Kernel("idle", 50000, 0))
			after := m.StatsSnapshot()
			checkPerCycleLaw(t, tc.name, after, m.Now())
			idle := m.Now() - start
			for _, e := range after.Entries {
				if !perCycleHistogram(e.Key) {
					continue
				}
				b0 := strings.TrimSuffix(e.Key, ".count") + ".b0"
				was, _ := before.Get(b0)
				now, _ := after.Get(b0)
				if now-was != idle {
					t.Errorf("%s legacy=%v: %s gained %d samples over %d idle cycles of a drained machine", tc.name, legacy, b0, now-was, idle)
				}
			}
		}
	}
}

// perCycleHistogram reports whether key is the sample count of a histogram
// sampled once per cycle.
func perCycleHistogram(key string) bool {
	return strings.HasSuffix(key, "_occupancy.count") || strings.HasSuffix(key, "/ag_active.count")
}

// checkPerCycleLaw checks the per-cycle histograms and FU-busy counters of a
// snapshot taken after cycles elapsed.
func checkPerCycleLaw(t *testing.T, name string, snap stats.Snapshot, cycles uint64) {
	t.Helper()
	seen := 0
	for _, e := range snap.Entries {
		switch {
		case perCycleHistogram(e.Key):
			seen++
			if e.Val != cycles {
				t.Errorf("%s: %s = %d, want one sample per cycle (%d)", name, e.Key, e.Val, cycles)
			}
		case strings.HasSuffix(e.Key, "/fu_busy_cycles") && e.Val > cycles:
			t.Errorf("%s: %s = %d exceeds the %d cycles elapsed", name, e.Key, e.Val, cycles)
		}
	}
	if seen == 0 {
		t.Fatalf("%s: no per-cycle histogram in the snapshot", name)
	}
}

package machine

import (
	"testing"

	"scatteradd/internal/mem"
)

// ffProgram is a mixed workload exercising every engine advance path: idle
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
// engine clock after every op plus the op results.
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
// engine fast-forwards dead stretches or ticks through them.
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
// run through RunUntil) advances exactly the kernel's cycle cost on an
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

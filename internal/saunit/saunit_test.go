package saunit

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"scatteradd/internal/dram"
	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/port"
	"scatteradd/internal/stats"
)

var _ port.Word = (*Unit)(nil)

// rig couples a Unit to a Uniform memory and pumps cycles.
type rig struct {
	u     *Unit
	m     *dram.Uniform
	reg   *stats.Registry // the unit's counters
	now   uint64
	resps []mem.Response
}

func newRig(cfg Config, latency, interval int) *rig {
	return newRigDepth(cfg, latency, interval, 16)
}

// newRigDepth is newRig over a memory whose request queue holds depth
// accesses.
func newRigDepth(cfg Config, latency, interval, depth int) *rig {
	m := dram.NewUniform(latency, interval, depth)
	r := &rig{u: New(cfg, m), m: m, reg: stats.NewRegistry()}
	r.reg.Adopt("saunit", r.u.StatsGroup())
	return r
}

func (r *rig) step() {
	r.u.Tick(r.now)
	r.finishCycle()
}

// quietState is what a quiet unit's Tick must leave as it was: its counters
// after FlushStats, its levels, its activity counts, its next event and the
// quiet check itself.
type quietState struct {
	snap      stats.Snapshot
	st        Stats
	occ, busy stats.Level
	next      uint64
	quiet     bool
}

func (r *rig) quietState() quietState {
	r.u.FlushStats(r.now)
	return quietState{r.reg.Snapshot(), r.u.Stats(), r.u.met.csOccupancy, r.u.met.fuBusy, r.u.NextEvent(r.now + 1), r.u.Quiet()}
}

// checkedStep is step, except that a unit whose quiet check holds is ticked
// all the same and must come out of its Tick unchanged: per-cycle stepping
// passes over it on that check alone, and fast-forward never reads it.
func (r *rig) checkedStep(t *testing.T) {
	t.Helper()
	r.checkQuietFlag(t)
	if !r.u.Quiet() {
		r.step()
		return
	}
	before := r.quietState()
	r.u.Tick(r.now)
	if after := r.quietState(); !reflect.DeepEqual(before, after) {
		t.Fatalf("cycle %d: a quiet unit's Tick changed it\nbefore %+v\nafter  %+v", r.now, before, after)
	}
	r.finishCycle()
}

// checkQuietFlag fails when the cached quiet check disagrees with the
// unit's state.
func (r *rig) checkQuietFlag(t *testing.T) {
	t.Helper()
	if q := r.u.noWork(); r.u.Quiet() != q {
		t.Fatalf("cycle %d: the cached quiet check reads %v, the unit's state %v", r.now, r.u.Quiet(), q)
	}
}

// finishCycle runs the rest of a cycle after the unit's turn: the memory
// ticks and the unit's responses are collected.
func (r *rig) finishCycle() {
	r.m.Tick(r.now)
	for {
		resp, ok := r.u.PopResponse(r.now)
		if !ok {
			break
		}
		r.resps = append(r.resps, resp)
	}
	r.now++
}

// run submits all requests (respecting back-pressure) and drains the unit.
// After every cycle an idle unit must expect no downstream response: its
// Tick skips the downstream drain on that count alone. Every cycle the unit
// is quiet, its Tick must change nothing (checkedStep).
func (r *rig) run(t *testing.T, reqs []mem.Request) {
	t.Helper()
	for _, req := range reqs {
		for !r.u.Accept(r.now, req) {
			r.checkedStep(t)
			r.checkOutstanding(t)
			if r.now > 5_000_000 {
				t.Fatal("accept timeout")
			}
		}
	}
	for r.u.Busy() {
		r.checkedStep(t)
		r.checkOutstanding(t)
		if r.now > 5_000_000 {
			t.Fatal("drain timeout")
		}
	}
	r.checkOutstanding(t)
	r.checkQuietFlag(t)
}

// checkOutstanding fails when the unit is not busy yet still counts a
// downstream response it has not popped.
func (r *rig) checkOutstanding(t *testing.T) {
	t.Helper()
	if !r.u.Busy() && r.u.outstanding != 0 {
		t.Fatalf("cycle %d: idle unit counts %d outstanding downstream responses", r.now, r.u.outstanding)
	}
}

// TestRefusedWriteBacksKeepUnitAwake: a memory that takes one access per 8
// cycles into a one-entry queue refuses most write-backs, so the unit's
// last work is a queue of refused ones. The unit is not quiet until they
// drain: passed over on a wrong quiet check, it would never send them.
func TestRefusedWriteBacksKeepUnitAwake(t *testing.T) {
	r := newRigDepth(DefaultConfig(), 4, 8, 1)
	for i := 0; i < 6; i++ {
		req := mem.Request{ID: uint64(i), Kind: mem.AddI64, Addr: mem.Addr(i), Val: mem.I64(int64(i + 1))}
		for !r.u.Accept(r.now, req) {
			r.checkedStep(t)
		}
	}
	onlyWriteBacks := 0
	for r.u.Busy() {
		r.checkedStep(t)
		u := r.u
		if !u.wbQ.Empty() && u.inQ.Empty() && u.fu.Len() == 0 && len(u.ready) == 0 && u.unsent == 0 && u.outstanding == 0 {
			onlyWriteBacks++
		}
		if r.now > 100_000 {
			t.Fatal("drain timeout")
		}
	}
	if onlyWriteBacks == 0 {
		t.Fatal("no cycle left the unit with refused write-backs alone")
	}
	for i := 0; i < 6; i++ {
		if got := r.m.Store().LoadI64(mem.Addr(i)); got != int64(i+1) {
			t.Fatalf("addr %d = %d, want %d", i, got, i+1)
		}
	}
}

// TestScrubbedOperandKeepsChainAwake: an operand that arrives while its
// address's chain is in the FU, and whose entry needs a parity scrub, holds
// the chain in the ready list after the FU hands it back, with nothing else
// left to do. The unit is not quiet while the chain waits: passed over on a
// wrong quiet check, it would never consume the operand.
func TestScrubbedOperandKeepsChainAwake(t *testing.T) {
	r := newRig(DefaultConfig(), 2, 1)
	r.u.SetFaults(fault.Config{Seed: 1, CSCorruptRate: 1}, "unit")
	add := func(id uint64) mem.Request {
		return mem.Request{ID: id, Kind: mem.AddI64, Addr: 7, Val: mem.I64(int64(id))}
	}
	r.u.Accept(r.now, add(1))
	for r.u.fu.Len() == 0 {
		r.checkedStep(t)
		if r.now > 1000 {
			t.Fatal("the chain never reached the FU")
		}
	}
	r.u.Accept(r.now, add(2))
	readyOnly := 0
	for r.u.Busy() {
		r.checkedStep(t)
		u := r.u
		if len(u.ready) > 0 && u.inQ.Empty() && u.wbQ.Empty() && u.fu.Len() == 0 && u.unsent == 0 && u.outstanding == 0 {
			readyOnly++
		}
		if r.now > 1000 {
			t.Fatal("drain timeout")
		}
	}
	if readyOnly == 0 {
		t.Fatal("no cycle left the unit with a waiting chain alone")
	}
	if got := r.m.Store().LoadI64(7); got != 3 {
		t.Fatalf("sum = %d, want 3", got)
	}
}

func TestSingleScatterAdd(t *testing.T) {
	r := newRig(DefaultConfig(), 10, 1)
	r.m.Store().StoreF64(100, 1.5)
	r.run(t, []mem.Request{{ID: 1, Kind: mem.AddF64, Addr: 100, Val: mem.F64(2.25)}})
	if got := r.m.Store().LoadF64(100); got != 3.75 {
		t.Fatalf("memory = %g want 3.75", got)
	}
	st := r.u.Stats()
	if st.MemReads != 1 || st.MemWrites != 1 || st.FUOps != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCombiningSameAddress(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 8
	r := newRig(cfg, 50, 1) // long latency so all requests buffer before data returns
	var reqs []mem.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, mem.Request{ID: uint64(i), Kind: mem.AddI64, Addr: 7, Val: mem.I64(1)})
	}
	r.run(t, reqs)
	if got := r.m.Store().LoadI64(7); got != 8 {
		t.Fatalf("sum = %d want 8", got)
	}
	st := r.u.Stats()
	if st.MemReads != 1 {
		t.Fatalf("combining failed: %d memory reads", st.MemReads)
	}
	if st.MemWrites != 1 {
		t.Fatalf("combining failed: %d memory writes", st.MemWrites)
	}
	if st.Combined != 7 {
		t.Fatalf("combined = %d want 7", st.Combined)
	}
	if st.FUOps != 8 {
		t.Fatalf("FU ops = %d want 8", st.FUOps)
	}
}

func TestDistinctAddressesNoCombining(t *testing.T) {
	r := newRig(DefaultConfig(), 5, 1)
	var reqs []mem.Request
	for i := 0; i < 16; i++ {
		reqs = append(reqs, mem.Request{ID: uint64(i), Kind: mem.AddI64, Addr: mem.Addr(i), Val: mem.I64(int64(i))})
	}
	r.run(t, reqs)
	for i := 0; i < 16; i++ {
		if got := r.m.Store().LoadI64(mem.Addr(i)); got != int64(i) {
			t.Fatalf("addr %d = %d", i, got)
		}
	}
	st := r.u.Stats()
	if st.MemReads != 16 || st.MemWrites != 16 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestStallOnFullStoreStillCorrect(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 2
	cfg.InQDepth = 2
	r := newRig(cfg, 30, 2)
	var reqs []mem.Request
	for i := 0; i < 50; i++ {
		reqs = append(reqs, mem.Request{ID: uint64(i), Kind: mem.AddI64, Addr: mem.Addr(i % 3), Val: mem.I64(1)})
	}
	r.run(t, reqs)
	want := []int64{17, 17, 16}
	for a, w := range want {
		if got := r.m.Store().LoadI64(mem.Addr(a)); got != w {
			t.Fatalf("addr %d = %d want %d", a, got, w)
		}
	}
	if r.u.Stats().StallFull == 0 {
		t.Fatal("expected stalls with 2-entry store")
	}
}

func TestBypassReadWrite(t *testing.T) {
	r := newRig(DefaultConfig(), 4, 1)
	r.run(t, []mem.Request{{ID: 5, Kind: mem.Write, Addr: 9, Val: 1234}})
	r.run(t, []mem.Request{{ID: 6, Kind: mem.Read, Addr: 9}})
	if len(r.resps) != 1 || r.resps[0].ID != 6 || r.resps[0].Val != 1234 {
		t.Fatalf("bypass responses = %+v", r.resps)
	}
	if r.u.Stats().Bypassed != 2 {
		t.Fatalf("bypassed = %d", r.u.Stats().Bypassed)
	}
}

func TestFetchAddReturnsPreUpdateValues(t *testing.T) {
	r := newRig(DefaultConfig(), 20, 1)
	var reqs []mem.Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, mem.Request{ID: uint64(i), Kind: mem.FetchAddI64, Addr: 3, Val: mem.I64(1)})
	}
	r.run(t, reqs)
	if got := r.m.Store().LoadI64(3); got != 6 {
		t.Fatalf("final = %d", got)
	}
	if len(r.resps) != 6 {
		t.Fatalf("got %d fetch responses", len(r.resps))
	}
	// The pre-update values must be a permutation of 0..5 (queue allocation,
	// in some hardware order).
	seen := map[int64]bool{}
	for _, resp := range r.resps {
		seen[mem.AsI64(resp.Val)] = true
	}
	for v := int64(0); v < 6; v++ {
		if !seen[v] {
			t.Fatalf("pre-update values %v missing %d", seen, v)
		}
	}
}

func TestExtensionOps(t *testing.T) {
	r := newRig(DefaultConfig(), 8, 1)
	r.m.Store().StoreF64(1, 10)
	r.m.Store().StoreF64(2, 10)
	r.m.Store().StoreF64(3, 2)
	r.run(t, []mem.Request{
		{ID: 1, Kind: mem.MinF64, Addr: 1, Val: mem.F64(-3)},
		{ID: 2, Kind: mem.MaxF64, Addr: 2, Val: mem.F64(30)},
		{ID: 3, Kind: mem.MulF64, Addr: 3, Val: mem.F64(4)},
	})
	if r.m.Store().LoadF64(1) != -3 || r.m.Store().LoadF64(2) != 30 || r.m.Store().LoadF64(3) != 8 {
		t.Fatalf("extension results: %g %g %g",
			r.m.Store().LoadF64(1), r.m.Store().LoadF64(2), r.m.Store().LoadF64(3))
	}
}

func TestReuseAddressAcrossChains(t *testing.T) {
	// Scatter-adds to the same address separated by full drains: the second
	// chain must read the first chain's sum (write-read ordering).
	cfg := DefaultConfig()
	cfg.WBQDepth = 1
	r := newRig(cfg, 12, 3)
	for round := 0; round < 5; round++ {
		r.run(t, []mem.Request{{ID: uint64(round), Kind: mem.AddI64, Addr: 0, Val: mem.I64(10)}})
	}
	if got := r.m.Store().LoadI64(0); got != 50 {
		t.Fatalf("sum = %d want 50", got)
	}
}

func TestImmediateReuseWithoutDrain(t *testing.T) {
	// Issue a request to the same address every cycle without waiting: write
	// backs and new reads interleave; the total must still be exact.
	cfg := DefaultConfig()
	cfg.Entries = 2
	r := newRig(cfg, 6, 1)
	n := 200
	sent := 0
	for sent < n || r.u.Busy() {
		if sent < n && r.u.Accept(r.now, mem.Request{ID: uint64(sent), Kind: mem.AddI64, Addr: 5, Val: mem.I64(1)}) {
			sent++
		}
		r.step()
		if r.now > 1_000_000 {
			t.Fatal("timeout")
		}
	}
	if got := r.m.Store().LoadI64(5); got != int64(n) {
		t.Fatalf("sum = %d want %d", got, n)
	}
}

// Property: for arbitrary (addr, val) integer scatter-add sequences the
// final memory image equals the sequential reference, regardless of store
// size, FU latency, memory timing and injected faults.
func TestScatterAddEquivalenceProperty(t *testing.T) {
	f := func(pairs []struct {
		A uint8
		V int16
	}, entries, fulat, lat, faults uint8) bool {
		cfg := DefaultConfig()
		cfg.Entries = int(entries%15) + 1
		cfg.FULatency = int(fulat%7) + 1
		r := newRig(cfg, int(lat%60), 1)
		if faults%2 == 1 {
			// Parity scrubs hold entries back from their chains, and FU
			// retries replay ops: both recover exactly.
			r.u.SetFaults(fault.Config{Seed: uint64(faults), CSCorruptRate: 0.3, FUErrorRate: 0.1}, "unit")
		}
		ref := map[mem.Addr]int64{}
		var reqs []mem.Request
		for i, p := range pairs {
			a := mem.Addr(p.A % 32)
			ref[a] += int64(p.V)
			reqs = append(reqs, mem.Request{ID: uint64(i), Kind: mem.AddI64, Addr: a, Val: mem.I64(int64(p.V))})
		}
		r.run(t, reqs)
		for a, want := range ref {
			if r.m.Store().LoadI64(a) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: floating-point scatter-add matches the reference within rounding
// reordering tolerance.
func TestScatterAddFloatProperty(t *testing.T) {
	f := func(pairs []struct {
		A uint8
		V int8
	}) bool {
		r := newRig(DefaultConfig(), 16, 2)
		ref := map[mem.Addr]float64{}
		var reqs []mem.Request
		for i, p := range pairs {
			a := mem.Addr(p.A % 16)
			v := float64(p.V) / 4
			ref[a] += v
			reqs = append(reqs, mem.Request{ID: uint64(i), Kind: mem.AddF64, Addr: a, Val: mem.F64(v)})
		}
		r.run(t, reqs)
		for a, want := range ref {
			got := r.m.Store().LoadF64(a)
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEagerCombineCorrectAndCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EagerCombine = true
	r := newRig(cfg, 80, 4) // slow memory: operands pile up
	var reqs []mem.Request
	for i := 0; i < 8; i++ {
		reqs = append(reqs, mem.Request{ID: uint64(i), Kind: mem.AddI64, Addr: 1, Val: mem.I64(1)})
	}
	r.run(t, reqs)
	if got := r.m.Store().LoadI64(1); got != 8 {
		t.Fatalf("sum = %d", got)
	}
	if r.u.Stats().EagerOps == 0 {
		t.Fatal("eager combining never fired")
	}
}

func TestIDTagCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := newRig(DefaultConfig(), 1, 1)
	r.u.Accept(0, mem.Request{ID: saIDTag | 5, Kind: mem.Read, Addr: 0})
}

func TestInvalidConfigPanics(t *testing.T) {
	for i, cfg := range []Config{
		{Entries: 0, FULatency: 1, FUIssueWidth: 1, InQDepth: 1, WBQDepth: 1},
		{Entries: 1, FULatency: 0, FUIssueWidth: 1, InQDepth: 1, WBQDepth: 1},
		{Entries: 1, FULatency: 1, FUIssueWidth: 1, InQDepth: 0, WBQDepth: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d: expected panic", i)
				}
			}()
			New(cfg, dram.NewUniform(1, 1, 4))
		}()
	}
}

func TestMixedKindsDifferentAddresses(t *testing.T) {
	r := newRig(DefaultConfig(), 10, 1)
	r.run(t, []mem.Request{
		{ID: 1, Kind: mem.AddF64, Addr: 0, Val: mem.F64(1.5)},
		{ID: 2, Kind: mem.AddI64, Addr: 8, Val: mem.I64(7)},
		{ID: 3, Kind: mem.AddF64, Addr: 0, Val: mem.F64(2.5)},
	})
	if r.m.Store().LoadF64(0) != 4.0 || r.m.Store().LoadI64(8) != 7 {
		t.Fatalf("mixed results: %g %d", r.m.Store().LoadF64(0), r.m.Store().LoadI64(8))
	}
}

func TestThroughputOneSumPerLatency(t *testing.T) {
	// With combining, n adds to one address need n dependent FU ops: the
	// drain time after the memory value returns is at least n*FULatency.
	cfg := DefaultConfig()
	cfg.Entries = 16
	cfg.FULatency = 4
	r := newRig(cfg, 100, 1)
	var reqs []mem.Request
	n := 10
	for i := 0; i < n; i++ {
		reqs = append(reqs, mem.Request{ID: uint64(i), Kind: mem.AddI64, Addr: 0, Val: mem.I64(1)})
	}
	r.run(t, reqs)
	if r.now < uint64(100+n*cfg.FULatency) {
		t.Fatalf("completed in %d cycles, faster than dependent-add bound %d",
			r.now, 100+n*cfg.FULatency)
	}
}

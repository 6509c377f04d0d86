package cache

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"scatteradd/internal/dram"
	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
	"scatteradd/internal/port"
	"scatteradd/internal/stats"
)

var _ port.Word = (*Bank)(nil)

func testConfig() Config {
	return Config{
		Banks:      2,
		TotalLines: 64, // 32 lines per bank
		Ways:       4,  // 8 sets per bank
		HitLatency: 2,
		MSHRs:      4,
		PortWidth:  1,
		InQDepth:   8,
		RespQDepth: 16,
		WBQDepth:   8,
	}
}

// harness drives a set of banks plus a DRAM, routing fills. Every cycle a
// bank is quiet, its Tick must change nothing (tickBank).
type harness struct {
	t       *testing.T
	banks   []*Bank
	d       *dram.DRAM
	now     uint64
	evicted []EvictedLine // partial lines popped during step()
}

func newHarness(t *testing.T, cfg Config, mode Mode) *harness {
	d := dram.New(dram.DefaultConfig())
	h := &harness{t: t, d: d}
	for i := 0; i < cfg.Banks; i++ {
		var backing *dram.DRAM
		if mode == Normal {
			backing = d
		}
		h.banks = append(h.banks, NewBank(cfg, i, backing, mode))
	}
	return h
}

// snapshot returns the banks' counters.
func (h *harness) snapshot() stats.Snapshot {
	var es []stats.Entry
	for i, b := range h.banks {
		es = stats.Append(es, fmt.Sprintf("cache[%d]", i), Metrics, b)
	}
	return stats.NewSnapshot(es)
}

// quietState is what a quiet bank's Tick must leave as it was: the
// counters after FlushStats, its levels, its activity counts, its next event
// and the quiet check itself.
type quietState struct {
	snap     stats.Snapshot
	st       Stats
	mshr, wc stats.Level
	next     uint64
	quiet    bool
}

func (h *harness) quietState(b *Bank) quietState {
	b.FlushStats(h.now)
	return quietState{h.snapshot(), b.Stats(), b.mshrLvl, b.wcbLvl, b.NextEvent(h.now + 1), b.Quiet()}
}

// tickBank ticks b. A bank whose quiet check holds is ticked all the same
// and must come out of its Tick unchanged: per-cycle stepping passes over
// it on that check alone, and fast-forward never reads it. The cached
// check must also agree with the bank's state.
func (h *harness) tickBank(b *Bank) {
	if q := b.noWork(); b.Quiet() != q {
		h.t.Fatalf("cycle %d: the cached quiet check reads %v, the bank's state %v", h.now, b.Quiet(), q)
	}
	if !b.Quiet() {
		b.Tick(h.now)
		return
	}
	before := h.quietState(b)
	b.Tick(h.now)
	if after := h.quietState(b); !reflect.DeepEqual(before, after) {
		h.t.Fatalf("cycle %d: a quiet bank's Tick changed it\nbefore %+v\nafter  %+v", h.now, before, after)
	}
}

func (h *harness) bankFor(a mem.Addr) *Bank {
	return h.banks[BankOf(a.Line(), len(h.banks))]
}

func (h *harness) step() {
	for _, b := range h.banks {
		h.tickBank(b)
		for {
			ev, ok := b.PopEvict()
			if !ok {
				break
			}
			h.evicted = append(h.evicted, ev)
		}
	}
	h.d.Tick(h.now)
	for {
		r, ok := h.d.PopResponse(h.now)
		if !ok {
			break
		}
		h.bankFor(r.Line).Fill(h.now, r.Line, r.Data)
	}
	h.now++
}

// do submits a request (retrying on back-pressure) and, when a response is
// expected, runs until it arrives.
func (h *harness) do(t *testing.T, r mem.Request) *mem.Response {
	t.Helper()
	b := h.bankFor(r.Addr)
	for !b.Accept(h.now, r) {
		h.step()
		if h.now > 1_000_000 {
			t.Fatal("accept timeout")
		}
	}
	needsResp := r.Kind == mem.Read || r.Kind.IsFetch()
	for {
		h.step()
		if resp, ok := b.PopResponse(h.now); ok {
			return &resp
		}
		if !needsResp && !b.Busy() {
			return nil
		}
		if h.now > 1_000_000 {
			t.Fatal("response timeout")
		}
	}
}

func (h *harness) drain(t *testing.T) {
	t.Helper()
	for {
		busy := h.d.Busy()
		for _, b := range h.banks {
			busy = busy || b.Busy()
		}
		if !busy {
			return
		}
		h.step()
		if h.now > 1_000_000 {
			t.Fatal("drain timeout")
		}
	}
}

func TestMissThenHit(t *testing.T) {
	h := newHarness(t, testConfig(), Normal)
	h.d.Store().StoreWord(10, 1234)
	r := h.do(t, mem.Request{ID: 1, Kind: mem.Read, Addr: 10})
	if r.Val != 1234 {
		t.Fatalf("read = %d", r.Val)
	}
	b := h.bankFor(10)
	if b.Stats().Misses != 1 || b.Stats().Hits != 0 {
		t.Fatalf("stats after miss: %+v", b.Stats())
	}
	start := h.now
	r2 := h.do(t, mem.Request{ID: 2, Kind: mem.Read, Addr: 11})
	if r2.Val != 0 {
		t.Fatalf("read = %d", r2.Val)
	}
	if b.Stats().Hits != 1 {
		t.Fatalf("second access should hit: %+v", b.Stats())
	}
	// A hit must be much faster than the DRAM round trip.
	if h.now-start > 10 {
		t.Fatalf("hit took %d cycles", h.now-start)
	}
}

func TestWriteAllocateAndWriteBack(t *testing.T) {
	cfg := testConfig()
	h := newHarness(t, cfg, Normal)
	b := h.bankFor(0)
	h.do(t, mem.Request{ID: 1, Kind: mem.Write, Addr: 3, Val: 55})
	h.drain(t)
	if b.Stats().Misses != 1 {
		t.Fatalf("write miss not allocated: %+v", b.Stats())
	}
	// Read back through the cache.
	r := h.do(t, mem.Request{ID: 2, Kind: mem.Read, Addr: 3})
	if r.Val != 55 {
		t.Fatalf("read after write = %d", r.Val)
	}
	// Functional flush makes DRAM authoritative.
	b.FlushFunctional(h.now)
	if h.d.Store().Load(3) != 55 {
		t.Fatal("FlushFunctional did not reach DRAM store")
	}
}

func TestEvictionWritesBack(t *testing.T) {
	cfg := testConfig()
	h := newHarness(t, cfg, Normal)
	b := h.banks[0]
	// Bank 0, set 0: lines whose local index ≡ 0 mod sets(8). Global line
	// stride between same-set lines of bank 0 = Banks*Sets lines = 16 lines.
	setStride := mem.Addr(cfg.Banks * 8 * mem.LineWords)
	// Fill all 4 ways of set 0 with dirty lines, then touch a 5th.
	for i := 0; i < 5; i++ {
		h.do(t, mem.Request{ID: uint64(i), Kind: mem.Write, Addr: setStride * mem.Addr(i), Val: mem.Word(i + 100)})
		h.drain(t)
	}
	st := b.Stats()
	if st.Evictions == 0 || st.WriteBacks == 0 {
		t.Fatalf("expected eviction + write-back: %+v", st)
	}
	// The evicted line's data must be in DRAM (line 0 was LRU).
	if h.d.Store().Load(0) != 100 {
		t.Fatalf("evicted data not written back: %d", h.d.Store().Load(0))
	}
	// And re-reading it must return the written value.
	r := h.do(t, mem.Request{ID: 9, Kind: mem.Read, Addr: 0})
	if r.Val != 100 {
		t.Fatalf("read after eviction = %d", r.Val)
	}
}

func TestMSHRMerging(t *testing.T) {
	h := newHarness(t, testConfig(), Normal)
	h.d.Store().StoreWord(16, 7)
	h.d.Store().StoreWord(17, 8)
	b := h.bankFor(16)
	// Two reads to the same line back-to-back: second merges.
	if !b.Accept(h.now, mem.Request{ID: 1, Kind: mem.Read, Addr: 16}) {
		t.Fatal("accept 1")
	}
	if !b.Accept(h.now, mem.Request{ID: 2, Kind: mem.Read, Addr: 17}) {
		t.Fatal("accept 2")
	}
	got := map[uint64]mem.Word{}
	for len(got) < 2 {
		h.step()
		if r, ok := b.PopResponse(h.now); ok {
			got[r.ID] = r.Val
		}
		if h.now > 100000 {
			t.Fatal("timeout")
		}
	}
	if got[1] != 7 || got[2] != 8 {
		t.Fatalf("responses = %v", got)
	}
	st := b.Stats()
	if st.Misses != 1 || st.MergedMiss != 1 {
		t.Fatalf("MSHR merge stats: %+v", st)
	}
	if h.d.Stats().Reads != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (merged)", h.d.Stats().Reads)
	}
}

// TestFetchWaitsForQueuedWriteBack evicts a dirty line while DRAM's queue
// is full, so its write-back waits in the bank, and then misses on the
// line. The first slot DRAM frees must go to the write-back: a fetch that
// took it would read the line without the write, and the fill would bring
// the stale line back. DRAM here serves one bank in arrival order.
func TestFetchWaitsForQueuedWriteBack(t *testing.T) {
	cfg := testConfig()
	cfg.Banks, cfg.TotalLines, cfg.Ways = 1, 8, 1 // direct-mapped, 8 sets
	dcfg := dram.DefaultConfig()
	dcfg.Channels, dcfg.BanksPerChannel, dcfg.RowLines = 1, 1, 1
	d := dram.New(dcfg)
	b := NewBank(cfg, 0, d, Normal)
	h := &harness{t: t, banks: []*Bank{b}, d: d}
	const lineA, lineB = 0, 8 * mem.LineWords // the same set
	h.do(t, mem.Request{ID: 1, Kind: mem.Write, Addr: lineA, Val: 7})
	h.drain(t)

	// run steps until done holds, after each step filling DRAM's queue
	// with writes to other lines when full is set, and collects responses.
	junk, got := mem.Addr(1<<20), map[uint64]mem.Word{}
	topUp := func() {
		for d.CanAccept(junk) {
			d.Accept(h.now, dram.LineReq{Line: junk, Write: true})
			junk += mem.LineWords
		}
	}
	run := func(full bool, done func() bool) {
		for !done() {
			h.step()
			if full {
				topUp()
			}
			for r, ok := b.PopResponse(h.now); ok; r, ok = b.PopResponse(h.now) {
				got[r.ID] = r.Val
			}
			if h.now > 100_000 {
				t.Fatal("timeout")
			}
		}
	}
	// The fill of b evicts a into the write-back queue; DRAM is full.
	b.Accept(h.now, mem.Request{ID: 2, Kind: mem.Read, Addr: lineB})
	run(false, func() bool { return b.writingBack(lineA) })
	topUp()
	b.Accept(h.now, mem.Request{ID: 3, Kind: mem.Read, Addr: lineA})
	run(true, func() bool { return b.mshrFor(lineA) != nil })
	// DRAM frees one slot, then stays full for long enough to serve every
	// request it holds.
	run(false, func() bool { return !b.writingBack(lineA) || b.mshrFor(lineA).issued })
	topUp()
	until := h.now + 4000
	run(true, func() bool { return h.now >= until })
	run(false, func() bool { _, ok := got[3]; return ok })
	if got[3] != 7 {
		t.Fatalf("read of the written-back line = %d, want 7", got[3])
	}
}

func TestBankOfPartitioning(t *testing.T) {
	// Successive lines map to successive banks.
	for i := 0; i < 32; i++ {
		a := mem.Addr(i * mem.LineWords)
		if BankOf(a, 8) != i%8 {
			t.Fatalf("line %d -> bank %d", i, BankOf(a, 8))
		}
	}
}

func TestWrongBankPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h := newHarness(t, testConfig(), Normal)
	// Address in bank 1 submitted to bank 0.
	h.banks[0].Accept(0, mem.Request{Kind: mem.Read, Addr: mem.LineWords})
}

func TestCombineLocalZeroAllocate(t *testing.T) {
	cfg := testConfig()
	h := newHarness(t, cfg, CombineLocal)
	b := h.banks[0]
	b.SetZeroKind(mem.AddF64)
	// Scatter-adds into a cold line: must not touch DRAM, must accumulate.
	for i := 0; i < 3; i++ {
		h.do(t, mem.Request{ID: uint64(i), Kind: mem.AddF64, Addr: 0, Val: mem.F64(1.5)})
	}
	h.drain(t)
	if h.d.Stats().Reads != 0 {
		t.Fatalf("CombineLocal fetched from DRAM: %+v", h.d.Stats())
	}
	parts := b.ResidentPartialLines()
	if len(parts) != 1 {
		t.Fatalf("resident partial lines = %d", len(parts))
	}
	if got := mem.AsF64(parts[0].Data[0]); got != 4.5 {
		t.Fatalf("partial sum = %g want 4.5", got)
	}
}

func TestCombineLocalEvictSurfacesPartial(t *testing.T) {
	cfg := testConfig()
	h := newHarness(t, cfg, CombineLocal)
	b := h.banks[0]
	b.SetZeroKind(mem.AddI64)
	// Fill set 0 beyond associativity with scatter-adds to distinct lines.
	setStride := mem.Addr(cfg.Banks * 8 * mem.LineWords)
	for i := 0; i < 5; i++ {
		h.do(t, mem.Request{ID: uint64(i), Kind: mem.AddI64, Addr: setStride * mem.Addr(i), Val: mem.I64(int64(i + 1))})
		h.drain(t)
	}
	if len(h.evicted) != 1 {
		t.Fatalf("evicted %d partial lines, want 1", len(h.evicted))
	}
	ev := h.evicted[0]
	if ev.Line != 0 || mem.AsI64(ev.Data[0]) != 1 {
		t.Fatalf("evicted = %+v", ev)
	}
	if b.Stats().SumBacks != 1 {
		t.Fatalf("sum-backs = %d", b.Stats().SumBacks)
	}
}

func TestFlushWalksAllLines(t *testing.T) {
	cfg := testConfig()
	h := newHarness(t, cfg, CombineLocal)
	b := h.banks[0]
	b.SetZeroKind(mem.AddI64)
	// Dirty three distinct lines.
	for i := 0; i < 3; i++ {
		h.do(t, mem.Request{ID: uint64(i), Kind: mem.AddI64,
			Addr: mem.Addr(i * cfg.Banks * mem.LineWords), Val: mem.I64(10)})
	}
	h.drain(t)
	b.StartFlush()
	for b.Flushing() || b.Busy() {
		h.step()
		if h.now > 100000 {
			t.Fatal("flush timeout")
		}
	}
	if len(h.evicted) != 3 {
		t.Fatalf("flush surfaced %d lines, want 3", len(h.evicted))
	}
	if len(b.ResidentPartialLines()) != 0 {
		t.Fatal("partial lines remain after flush")
	}
}

func TestFetchAddInCombineLocal(t *testing.T) {
	h := newHarness(t, testConfig(), CombineLocal)
	b := h.banks[0]
	b.SetZeroKind(mem.FetchAddI64)
	r1 := h.do(t, mem.Request{ID: 1, Kind: mem.FetchAddI64, Addr: 0, Val: mem.I64(5)})
	r2 := h.do(t, mem.Request{ID: 2, Kind: mem.FetchAddI64, Addr: 0, Val: mem.I64(3)})
	if mem.AsI64(r1.Val) != 0 || mem.AsI64(r2.Val) != 5 {
		t.Fatalf("fetch-add returned %d then %d, want 0 then 5", mem.AsI64(r1.Val), mem.AsI64(r2.Val))
	}
}

// Property: a random sequence of word writes followed by reads through the
// cache returns exactly what a flat map would (functional equivalence).
func TestCacheFunctionalEquivalence(t *testing.T) {
	f := func(ops []struct {
		A uint8
		V uint16
	}) bool {
		cfg := testConfig()
		h := newHarness(t, cfg, Normal)
		ref := map[mem.Addr]mem.Word{}
		for i, op := range ops {
			a := mem.Addr(op.A)
			b := h.bankFor(a)
			req := mem.Request{ID: uint64(i), Kind: mem.Write, Addr: a, Val: mem.Word(op.V)}
			for !b.Accept(h.now, req) {
				h.step()
			}
			ref[a] = mem.Word(op.V)
			h.step()
		}
		// Drain all pending work.
		for {
			busy := h.d.Busy()
			for _, b := range h.banks {
				busy = busy || b.Busy()
			}
			if !busy {
				break
			}
			h.step()
		}
		for a, want := range ref {
			b := h.bankFor(a)
			req := mem.Request{ID: 999, Kind: mem.Read, Addr: a}
			for !b.Accept(h.now, req) {
				h.step()
			}
			var got *mem.Response
			for got == nil {
				h.step()
				if r, ok := b.PopResponse(h.now); ok {
					got = &r
				}
				if h.now > 2_000_000 {
					return false
				}
			}
			if got.Val != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: random scatter-adds into CombineLocal banks, whose evicted
// partial lines may be held in the parity-scrub pipe, then a flush of every
// bank, surface partial lines that sum to the sequential reference.
func TestCombineLocalSumBackProperty(t *testing.T) {
	f := func(ops []struct {
		A uint16
		V int8
	}, seed uint8) bool {
		cfg := testConfig()
		h := newHarness(t, cfg, CombineLocal)
		for i, b := range h.banks {
			b.SetZeroKind(mem.AddI64)
			b.SetFaults(fault.Config{Seed: uint64(seed), CSCorruptRate: 0.3}, fmt.Sprint("bank", i))
		}
		ref := map[mem.Addr]int64{}
		for i, op := range ops {
			a := mem.Addr(op.A % 1024) // 128 lines over 64 cache lines: evictions
			ref[a] += int64(op.V)
			b := h.bankFor(a)
			for !b.Accept(h.now, mem.Request{ID: uint64(i), Kind: mem.AddI64, Addr: a, Val: mem.I64(int64(op.V))}) {
				h.step()
			}
			h.step()
		}
		for _, b := range h.banks {
			b.StartFlush()
		}
		for busy := true; busy; {
			busy = false
			for _, b := range h.banks {
				busy = busy || b.Busy()
			}
			h.step()
			if h.now > 1_000_000 {
				return false
			}
		}
		got := map[mem.Addr]int64{}
		for _, ev := range h.evicted {
			for w, v := range ev.Data {
				got[ev.Line+mem.Addr(w)] += mem.AsI64(v)
			}
		}
		for a, want := range ref {
			if got[a] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []func(){
		func() {
			cfg := testConfig()
			cfg.TotalLines = 63
			NewBank(cfg, 0, dram.New(dram.DefaultConfig()), Normal)
		},
		func() {
			cfg := testConfig()
			cfg.Ways = 5
			NewBank(cfg, 0, dram.New(dram.DefaultConfig()), Normal)
		},
		func() { NewBank(testConfig(), 0, nil, Normal) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestSteadyMissStreamDoesNotAllocate: once every MSHR, set and way of a
// bank has been used, a stream of misses allocates nothing. Each round
// misses on one new line per MSHR with three reads per line (the later two
// merge into the first's MSHR), through a response pipe two deep, so that
// filled MSHRs drain across cycles; every miss evicts a clean line. The
// freed MSHRs keep their pending lists' backing arrays, and a fill's data
// is copied to the heap only when eviction blocks it.
func TestSteadyMissStreamDoesNotAllocate(t *testing.T) {
	cfg := testConfig()
	cfg.Banks = 1
	cfg.TotalLines = 32 // 8 sets of 4 ways
	cfg.RespQDepth = 2
	const perLine = 3
	d := dram.New(dram.DefaultConfig())
	b := NewBank(cfg, 0, d, Normal)
	var now uint64
	var next mem.Addr // the first line of the next round
	round := func() {
		n := perLine * cfg.MSHRs
		sent, got := 0, 0
		for got < n {
			for sent < n {
				a := (next+mem.Addr(sent/perLine))*mem.LineWords + mem.Addr(sent%perLine)
				if !b.Accept(now, mem.Request{ID: uint64(sent), Kind: mem.Read, Addr: a}) {
					break
				}
				sent++
			}
			b.Tick(now)
			d.Tick(now)
			for r, ok := d.PopResponse(now); ok; r, ok = d.PopResponse(now) {
				b.Fill(now, r.Line, r.Data)
			}
			for _, ok := b.PopResponse(now); ok; _, ok = b.PopResponse(now) {
				got++
			}
			now++
			if now > 1_000_000 {
				t.Fatalf("round at line %d did not finish", next)
			}
		}
		next += mem.Addr(cfg.MSHRs)
	}
	// Sixteen rounds install 64 lines into the bank's 32 ways.
	for i := 0; i < 16; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("a round of %d misses allocates %.1f times", cfg.MSHRs, allocs)
	}
	if st := b.Stats(); st.MergedMiss == 0 || st.Evictions == 0 {
		t.Fatalf("the stream did not merge and evict: %+v", st)
	}
}

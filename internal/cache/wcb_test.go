package cache

import (
	"testing"
	"testing/quick"

	"scatteradd/internal/mem"
)

func wcbConfig() Config {
	cfg := testConfig()
	cfg.WriteNoAllocate = true
	cfg.WCBEntries = 4
	return cfg
}

func TestWCBFullLineAvoidsFill(t *testing.T) {
	h := newHarness(wcbConfig(), Normal)
	b := h.banks[0]
	// Write a whole line (bank 0 owns lines 0, 2, 4...: words 0..7).
	for w := 0; w < mem.LineWords; w++ {
		h.do(t, mem.Request{ID: uint64(w), Kind: mem.Write, Addr: mem.Addr(w), Val: mem.Word(w + 10)})
	}
	h.drain(t)
	if h.d.Stats().Reads != 0 {
		t.Fatalf("full-line write caused %d DRAM reads", h.d.Stats().Reads)
	}
	if h.d.Stats().Writes != 1 {
		t.Fatalf("DRAM writes = %d want 1", h.d.Stats().Writes)
	}
	if b.Stats().WCBFullLines != 1 {
		t.Fatalf("stats: %+v", b.Stats())
	}
	for w := 0; w < mem.LineWords; w++ {
		if got := h.d.Store().Load(mem.Addr(w)); got != mem.Word(w+10) {
			t.Fatalf("word %d = %d", w, got)
		}
	}
}

func TestWCBPartialSpillsViaFetchMerge(t *testing.T) {
	h := newHarness(wcbConfig(), Normal)
	b := h.banks[0]
	h.d.Store().StoreWord(3, 999) // pre-existing word that must survive
	// Write only words 0 and 1 of line 0, then read word 3: the partial
	// entry spills via fetch-and-merge before the read is serviced.
	h.do(t, mem.Request{ID: 1, Kind: mem.Write, Addr: 0, Val: 100})
	h.do(t, mem.Request{ID: 2, Kind: mem.Write, Addr: 1, Val: 101})
	r := h.do(t, mem.Request{ID: 3, Kind: mem.Read, Addr: 3})
	if r.Val != 999 {
		t.Fatalf("read after partial write = %d want 999", r.Val)
	}
	if b.Stats().WCBSpills != 1 {
		t.Fatalf("stats: %+v", b.Stats())
	}
	// The merged line must hold both the old and new words.
	r0 := h.do(t, mem.Request{ID: 4, Kind: mem.Read, Addr: 0})
	if r0.Val != 100 {
		t.Fatalf("merged word 0 = %d", r0.Val)
	}
}

func TestWCBCapacityEviction(t *testing.T) {
	h := newHarness(wcbConfig(), Normal)
	b := h.banks[0]
	// Touch 5 distinct lines with partial writes: the LRU entry spills.
	for i := 0; i < 5; i++ {
		a := mem.Addr(i * 2 * mem.LineWords) // bank 0 lines
		h.do(t, mem.Request{ID: uint64(i), Kind: mem.Write, Addr: a, Val: mem.Word(i)})
	}
	h.drain(t)
	if b.Stats().WCBSpills == 0 {
		t.Fatalf("no spill with 5 lines in a 4-entry WCB: %+v", b.Stats())
	}
}

func TestWCBFlushFunctional(t *testing.T) {
	h := newHarness(wcbConfig(), Normal)
	h.do(t, mem.Request{ID: 1, Kind: mem.Write, Addr: 5, Val: 55})
	h.drain(t)
	h.banks[0].FlushFunctional(h.now)
	if got := h.d.Store().Load(5); got != 55 {
		t.Fatalf("flushed word = %d", got)
	}
}

func TestWCBReducesTrafficForStreamWrites(t *testing.T) {
	// Sequential full-region writes: write-allocate fetches every line,
	// write-no-allocate fetches none.
	run := func(noAlloc bool) uint64 {
		cfg := testConfig()
		cfg.WriteNoAllocate = noAlloc
		h := newHarness(cfg, Normal)
		for i := 0; i < 128; i++ {
			a := mem.Addr(i)
			bk := h.bankFor(a)
			req := mem.Request{ID: uint64(i), Kind: mem.Write, Addr: a, Val: mem.Word(i)}
			for !bk.Accept(h.now, req) {
				h.step()
			}
			h.step()
		}
		h.drain(t)
		return h.d.Stats().Reads
	}
	alloc, noAlloc := run(false), run(true)
	if noAlloc != 0 {
		t.Fatalf("write-no-allocate caused %d fills", noAlloc)
	}
	if alloc == 0 {
		t.Fatal("write-allocate baseline fetched nothing — test is vacuous")
	}
}

// Property: with write-no-allocate, arbitrary interleavings of writes and
// reads still behave like a flat memory.
func TestWCBFunctionalEquivalenceProperty(t *testing.T) {
	f := func(ops []struct {
		A     uint8
		V     uint16
		Write bool
	}) bool {
		h := newHarness(wcbConfig(), Normal)
		ref := map[mem.Addr]mem.Word{}
		for i, op := range ops {
			a := mem.Addr(op.A % 64)
			bk := h.bankFor(a)
			if op.Write {
				req := mem.Request{ID: uint64(i), Kind: mem.Write, Addr: a, Val: mem.Word(op.V)}
				for !bk.Accept(h.now, req) {
					h.step()
				}
				ref[a] = mem.Word(op.V)
				h.step()
				// Writes are not synchronized individually; drain before a
				// subsequent read of the same address below.
			} else {
				// Drain so the read observes all earlier writes.
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
				req := mem.Request{ID: uint64(i), Kind: mem.Read, Addr: a}
				for !bk.Accept(h.now, req) {
					h.step()
				}
				var got *mem.Response
				for got == nil {
					h.step()
					if r, ok := bk.PopResponse(h.now); ok {
						got = &r
					}
					if h.now > 2_000_000 {
						return false
					}
				}
				if got.Val != ref[a] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

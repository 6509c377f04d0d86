package dram

import (
	"reflect"
	"testing"
	"testing/quick"

	"scatteradd/internal/mem"
	"scatteradd/internal/stats"
)

func smallConfig() Config {
	return Config{
		Channels:        2,
		BanksPerChannel: 2,
		RowLines:        4,
		TCas:            4,
		TRowMiss:        6,
		BusCyclesPerLn:  2,
		QueueDepth:      4,
		Policy:          FRFCFS,
	}
}

// drain runs the DRAM until idle, collecting read responses.
func drain(t *testing.T, d *DRAM, start uint64, limit uint64) []LineResp {
	t.Helper()
	var out []LineResp
	for now := start; now < start+limit; now++ {
		d.Tick(now)
		for {
			r, ok := d.PopResponse(now)
			if !ok {
				break
			}
			out = append(out, r)
		}
		if !d.Busy() {
			return out
		}
	}
	t.Fatalf("DRAM did not drain within %d cycles", limit)
	return nil
}

// quietState is what the channel loop of a quiet DRAM must leave as it
// was: the counters, the activity counts, the next event and the quiet
// check itself.
type quietState struct {
	snap  stats.Snapshot
	st    Stats
	next  uint64
	quiet bool
}

func quietStateOf(d *DRAM, now uint64) quietState {
	reg := stats.NewRegistry()
	reg.Adopt("dram", d.StatsGroup())
	return quietState{reg.Snapshot(), d.Stats(), d.NextEvent(now + 1), d.quiet()}
}

// checkedTick ticks d. A quiet DRAM's Tick returns at once; the channel
// loop it skips then runs here all the same and must change nothing.
func checkedTick(t *testing.T, d *DRAM, now uint64) {
	t.Helper()
	if !d.quiet() {
		d.Tick(now)
		return
	}
	before := quietStateOf(d, now)
	d.Tick(now)
	d.tickChannels(now)
	if after := quietStateOf(d, now); !reflect.DeepEqual(before, after) {
		t.Fatalf("cycle %d: a quiet DRAM's tick changed it\nbefore %+v\nafter  %+v", now, before, after)
	}
}

func TestReadAfterWriteSameLine(t *testing.T) {
	d := New(smallConfig())
	var data [mem.LineWords]mem.Word
	for i := range data {
		data[i] = mem.Word(i * 11)
	}
	if !d.Accept(0, LineReq{ID: 1, Line: 64, Write: true, Data: data}) {
		t.Fatal("write not accepted")
	}
	if !d.Accept(0, LineReq{ID: 2, Line: 64}) {
		t.Fatal("read not accepted")
	}
	resps := drain(t, d, 0, 1000)
	if len(resps) != 1 {
		t.Fatalf("got %d responses, want 1", len(resps))
	}
	if resps[0].ID != 2 || resps[0].Data != data {
		t.Fatalf("read returned %+v", resps[0])
	}
}

func TestUnalignedLinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d := New(smallConfig())
	d.Accept(0, LineReq{Line: 3})
}

func TestQueueBackpressure(t *testing.T) {
	cfg := smallConfig()
	d := New(cfg)
	// Fill one channel's queue (all lines map to channel 0 with stride
	// Channels*LineWords).
	stride := mem.Addr(cfg.Channels * mem.LineWords)
	for i := 0; i < cfg.QueueDepth; i++ {
		if !d.Accept(0, LineReq{ID: uint64(i), Line: stride * mem.Addr(i)}) {
			t.Fatalf("accept %d failed", i)
		}
	}
	a := stride * mem.Addr(cfg.QueueDepth)
	if d.CanAccept(a) {
		t.Fatal("CanAccept should be false on full channel")
	}
	if d.Accept(0, LineReq{ID: 99, Line: a}) {
		t.Fatal("accept succeeded on full channel")
	}
	if d.Stats().Stalls != 1 {
		t.Fatalf("stalls = %d", d.Stats().Stalls)
	}
	// Other channel still has room.
	if !d.CanAccept(mem.LineWords) {
		t.Fatal("other channel should accept")
	}
}

func TestRowHitFasterThanRowMiss(t *testing.T) {
	cfg := smallConfig()
	// Two reads in the same row: second should be a row hit.
	d := New(cfg)
	d.Accept(0, LineReq{ID: 1, Line: 0})
	drain(t, d, 0, 1000)
	missOnly := d.Stats()
	if missOnly.RowMisses != 1 || missOnly.RowHits != 0 {
		t.Fatalf("first access: hits=%d misses=%d", missOnly.RowHits, missOnly.RowMisses)
	}

	d2 := New(cfg)
	d2.Accept(0, LineReq{ID: 1, Line: 0})
	// Same channel (0), same bank, same row: next channel-local line in the
	// same bank is Channels*BanksPerChannel lines away.
	sameBankNext := mem.Addr(cfg.Channels*cfg.BanksPerChannel) * mem.LineWords
	d2.Accept(0, LineReq{ID: 2, Line: sameBankNext})
	drain(t, d2, 0, 1000)
	st := d2.Stats()
	if st.RowHits != 1 || st.RowMisses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.RowHits, st.RowMisses)
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 1
	cfg.BanksPerChannel = 1
	d := New(cfg)
	// Line 0 (row 0), then a line in a different row, then another row-0 line.
	rowStride := mem.Addr(cfg.RowLines * mem.LineWords)
	d.Accept(0, LineReq{ID: 0, Line: 0})
	d.Accept(0, LineReq{ID: 1, Line: rowStride})
	d.Accept(0, LineReq{ID: 2, Line: mem.LineWords})
	resps := drain(t, d, 0, 2000)
	if len(resps) != 3 {
		t.Fatalf("got %d responses", len(resps))
	}
	// Under FR-FCFS, ID 2 (row hit after ID 0) completes before ID 1.
	order := []uint64{resps[0].ID, resps[1].ID, resps[2].ID}
	if order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("FR-FCFS order = %v, want [0 2 1]", order)
	}
}

func TestFIFOPreservesOrder(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 1
	cfg.BanksPerChannel = 1
	cfg.Policy = FIFO
	d := New(cfg)
	rowStride := mem.Addr(cfg.RowLines * mem.LineWords)
	d.Accept(0, LineReq{ID: 0, Line: 0})
	d.Accept(0, LineReq{ID: 1, Line: rowStride})
	d.Accept(0, LineReq{ID: 2, Line: mem.LineWords})
	resps := drain(t, d, 0, 2000)
	for i, r := range resps {
		if r.ID != uint64(i) {
			t.Fatalf("FIFO order violated: %+v", resps)
		}
	}
}

func TestChannelParallelism(t *testing.T) {
	// Requests to different channels should overlap; same channel serializes.
	cfg := smallConfig()
	one := New(cfg)
	stride := mem.Addr(cfg.Channels * mem.LineWords)
	for i := 0; i < 4; i++ {
		one.Accept(0, LineReq{ID: uint64(i), Line: stride * mem.Addr(i)}) // all channel 0
	}
	var oneCycles uint64
	for now := uint64(0); ; now++ {
		one.Tick(now)
		for {
			if _, ok := one.PopResponse(now); !ok {
				break
			}
		}
		if !one.Busy() {
			oneCycles = now
			break
		}
	}

	spread := New(cfg)
	for i := 0; i < 4; i++ {
		// alternate channels
		spread.Accept(0, LineReq{ID: uint64(i), Line: mem.Addr(i%2)*mem.LineWords + stride*mem.Addr(i/2)})
	}
	var spreadCycles uint64
	for now := uint64(0); ; now++ {
		spread.Tick(now)
		for {
			if _, ok := spread.PopResponse(now); !ok {
				break
			}
		}
		if !spread.Busy() {
			spreadCycles = now
			break
		}
	}
	if spreadCycles >= oneCycles {
		t.Fatalf("channel spread (%d cyc) not faster than single channel (%d cyc)",
			spreadCycles, oneCycles)
	}
}

func TestStatsCounts(t *testing.T) {
	d := New(smallConfig())
	d.Accept(0, LineReq{ID: 1, Line: 0, Write: true})
	d.Accept(0, LineReq{ID: 2, Line: mem.LineWords})
	drain(t, d, 0, 1000)
	st := d.Stats()
	if st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("reads=%d writes=%d", st.Reads, st.Writes)
	}
	if st.BytesTransferred() != 2*mem.LineBytes {
		t.Fatalf("bytes = %d", st.BytesTransferred())
	}
}

// Property: a batch of writes followed by reads returns exactly the written
// data, for arbitrary line addresses (functional correctness of the timing
// model). Every cycle the DRAM is quiet, its skipped channel loop must
// change nothing (checkedTick).
func TestWriteReadProperty(t *testing.T) {
	f := func(lines []uint8, seed uint64) bool {
		d := New(smallConfig())
		written := map[mem.Addr][mem.LineWords]mem.Word{}
		now := uint64(0)
		for _, l := range lines {
			line := mem.Addr(l) * mem.LineWords
			var data [mem.LineWords]mem.Word
			for i := range data {
				seed = seed*6364136223846793005 + 1442695040888963407
				data[i] = seed
			}
			for !d.Accept(now, LineReq{ID: uint64(l), Line: line, Write: true, Data: data}) {
				checkedTick(t, d, now)
				now++
			}
			written[line] = data
		}
		// Drain writes, then idle a few cycles.
		for d.Busy() {
			checkedTick(t, d, now)
			now++
		}
		idle := func() {
			for i := 0; i < 3; i++ {
				checkedTick(t, d, now)
				now++
			}
		}
		idle()
		for line, want := range written {
			if !d.Accept(now, LineReq{ID: 1, Line: line}) {
				checkedTick(t, d, now)
				now++
				if !d.Accept(now, LineReq{ID: 1, Line: line}) {
					return false
				}
			}
			var got *LineResp
			for got == nil {
				checkedTick(t, d, now)
				if r, ok := d.PopResponse(now); ok {
					got = &r
				}
				now++
				if now > 1_000_000 {
					return false
				}
			}
			if got.Data != want {
				return false
			}
			idle()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	if FRFCFS.String() != "FR-FCFS" || FIFO.String() != "FIFO" {
		t.Fatal("policy names")
	}
}

package network

import (
	"testing"
	"testing/quick"
	"unsafe"

	"scatteradd/internal/mem"
)

// tagged returns a src->dst packet whose request ID carries tag.
func tagged(src, dst, tag int) Packet {
	return Packet{Src: int32(src), Dst: int32(dst), Req: mem.Request{ID: uint64(tag)}}
}

// tag returns the tag a packet was built with.
func tag(p Packet) int { return int(p.Req.ID) }

// TestPacketSize: the packet is copied by value through every queue, wire
// and retransmission buffer, so it must stay within 72 bytes; wrapping it
// in a per-hop envelope would fail here.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 72 {
		t.Fatalf("Packet is %d bytes, want <= 72", n)
	}
}

func pump(x *Crossbar, now *uint64, cycles int, recv func(dst int, p Packet)) {
	for c := 0; c < cycles; c++ {
		x.Tick(*now)
		for d := 0; d < x.cfg.Nodes; d++ {
			for {
				p, ok := x.Recv(d)
				if !ok {
					break
				}
				if recv != nil {
					recv(d, p)
				}
			}
		}
		*now++
	}
}

func TestDelivery(t *testing.T) {
	x := New(DefaultConfig(4))
	if !x.Send(tagged(0, 3, 42)) {
		t.Fatal("send failed")
	}
	var got []Packet
	now := uint64(0)
	pump(x, &now, 50, func(d int, p Packet) {
		if d != 3 {
			t.Fatalf("delivered to node %d", d)
		}
		got = append(got, p)
	})
	if len(got) != 1 || tag(got[0]) != 42 {
		t.Fatalf("got %+v", got)
	}
	if x.Busy() {
		t.Fatal("crossbar should be idle")
	}
}

func TestLatency(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Latency = 10
	x := New(cfg)
	x.Send(tagged(0, 1, 1))
	now := uint64(0)
	arrived := int64(-1)
	for c := 0; c < 40 && arrived < 0; c++ {
		x.Tick(now)
		if _, ok := x.Recv(1); ok {
			arrived = int64(now)
		}
		now++
	}
	if arrived < 10 {
		t.Fatalf("packet arrived at cycle %d, before latency 10", arrived)
	}
}

func TestBandwidthLimitLow(t *testing.T) {
	// At 1 word/cycle per port, 100 packets from one node take >=100 cycles.
	cfg := DefaultConfig(2)
	cfg.InputQDepth = 128
	cfg.OutputQDepth = 128
	x := New(cfg)
	for i := 0; i < 100; i++ {
		if !x.Send(tagged(0, 1, i)) {
			t.Fatalf("send %d failed", i)
		}
	}
	now := uint64(0)
	count := 0
	for c := 0; c < 300 && count < 100; c++ {
		x.Tick(now)
		for {
			if _, ok := x.Recv(1); !ok {
				break
			}
			count++
		}
		now++
	}
	if count != 100 {
		t.Fatalf("delivered %d", count)
	}
	if now < 100 {
		t.Fatalf("100 packets in %d cycles exceeds 1/cycle bandwidth", now)
	}
}

func TestHighBandwidthFaster(t *testing.T) {
	run := func(words int) uint64 {
		cfg := DefaultConfig(2)
		cfg.WordsPerCyc = words
		cfg.InputQDepth = 256
		cfg.OutputQDepth = 256
		x := New(cfg)
		for i := 0; i < 200; i++ {
			x.Send(tagged(0, 1, i))
		}
		now := uint64(0)
		count := 0
		for count < 200 {
			x.Tick(now)
			for {
				if _, ok := x.Recv(1); !ok {
					break
				}
				count++
			}
			now++
			if now > 10000 {
				t.Fatal("timeout")
			}
		}
		return now
	}
	low, high := run(1), run(8)
	if high*4 > low {
		t.Fatalf("8 words/cyc (%d cycles) not ~8x faster than 1 (%d)", high, low)
	}
}

func TestBackpressure(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.InputQDepth = 2
	x := New(cfg)
	if !x.Send(Packet{Src: 0, Dst: 1}) || !x.Send(Packet{Src: 0, Dst: 1}) {
		t.Fatal("sends failed")
	}
	if x.Send(Packet{Src: 0, Dst: 1}) {
		t.Fatal("send succeeded on full input queue")
	}
	if !x.Send(Packet{Src: 1, Dst: 0}) {
		t.Fatal("other port should accept")
	}
}

func TestFairnessAcrossInputs(t *testing.T) {
	// Two inputs competing for one output should share bandwidth roughly
	// equally under round-robin arbitration.
	cfg := DefaultConfig(3)
	cfg.InputQDepth = 64
	cfg.OutputQDepth = 4
	x := New(cfg)
	for i := 0; i < 50; i++ {
		x.Send(tagged(0, 2, 0))
		x.Send(tagged(1, 2, 1))
	}
	now := uint64(0)
	first40 := []int{}
	for len(first40) < 40 {
		x.Tick(now)
		for {
			p, ok := x.Recv(2)
			if !ok {
				break
			}
			if len(first40) < 40 {
				first40 = append(first40, tag(p))
			}
		}
		now++
		if now > 5000 {
			t.Fatal("timeout")
		}
	}
	from0 := 0
	for _, s := range first40 {
		if s == 0 {
			from0++
		}
	}
	if from0 < 15 || from0 > 25 {
		t.Fatalf("unfair arbitration: %d/40 from input 0", from0)
	}
}

func TestInvalidDestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	x := New(DefaultConfig(2))
	x.Send(Packet{Src: 0, Dst: 5})
}

// Property: every sent packet is delivered exactly once to its destination,
// for arbitrary traffic patterns.
func TestExactlyOnceDeliveryProperty(t *testing.T) {
	f := func(flows []struct{ S, D, P uint8 }) bool {
		const nodes = 4
		cfg := DefaultConfig(nodes)
		cfg.InputQDepth = 8
		x := New(cfg)
		sent := map[[3]uint8]int{}
		now := uint64(0)
		recvd := map[[3]uint8]int{}
		collect := func(d int, p Packet) {
			recvd[[3]uint8{uint8(p.Src), uint8(d), uint8(tag(p))}]++
		}
		for _, fl := range flows {
			p := tagged(int(fl.S%nodes), int(fl.D%nodes), int(fl.P))
			for !x.Send(p) {
				pump(x, &now, 1, collect)
			}
			sent[[3]uint8{uint8(p.Src), uint8(p.Dst), fl.P}]++
		}
		for i := 0; i < 10000 && x.Busy(); i++ {
			pump(x, &now, 1, collect)
		}
		if x.Busy() {
			return false
		}
		if len(sent) != len(recvd) {
			return false
		}
		for k, c := range sent {
			if recvd[k] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

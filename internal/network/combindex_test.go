package network

import (
	"fmt"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/mem"
)

// scanStaged is the combining rule applied by brute force: the first staged
// combinable packet of s, in window and ring order, with p's destination,
// kind and address.
func scanStaged(s *mhSwitch, p *Packet) *Packet {
	for _, w := range s.stage {
		if w == nil {
			continue
		}
		for i := 0; i < w.Len(); i++ {
			st := w.At(i)
			if st.Dst == p.Dst && st.Req.Kind == p.Req.Kind && st.Req.Addr == p.Req.Addr && combinable(st) {
				return st
			}
		}
	}
	return nil
}

// value reads a packet's integer-valued operand by its kind.
func value(p Packet) float64 {
	if p.Req.Kind.IsFP() {
		return mem.AsF64(p.Req.Val)
	}
	return float64(mem.AsI64(p.Req.Val))
}

// stagedCombinable counts the staged combinable packets of s.
func stagedCombinable(s *mhSwitch) int {
	n := 0
	for _, w := range s.stage {
		for i := 0; w != nil && i < w.Len(); i++ {
			if combinable(w.At(i)) {
				n++
			}
		}
	}
	return n
}

// TestCombineIndexMatchesScan drives mixed traffic through the combining
// topologies of the multinode topoMatrix (fan-in 2 and 4 trees and a mesh,
// on 2, 3, 5, 8 and 9 nodes), fault-free and under chaos drops and
// duplicates, in both stepping modes. At every stageIn the combining index
// must find exactly the staged packet a scan of the switch's windows finds
// (or none, for an arrival that may not merge), and must index exactly the
// switch's staged combinable packets. Every (destination, kind, address)
// must receive the sum sent to it.
func TestCombineIndexMatchesScan(t *testing.T) {
	probes, hits := 0, 0
	stageProbe = func(m *MultiHop, s *mhSwitch, p Packet, hit *Packet) {
		var want *Packet
		if m.cfg.Combine && combinable(&p) {
			want = scanStaged(s, &p)
		}
		if hit != want {
			t.Fatalf("index found %+v for %+v, the scan %+v", hit, p, want)
		}
		if n := stagedCombinable(s); s.comb.n != n {
			t.Fatalf("index holds %d packets, the windows %d combinable ones", s.comb.n, n)
		}
		probes++
		if hit != nil {
			hits++
		}
	}
	defer func() { stageProbe = nil }()

	type key struct {
		dst  int32
		kind mem.Kind
		addr mem.Addr
	}
	shapes := map[string]func(n int) MultiHopConfig{
		"tree2+comb": func(n int) MultiHopConfig { return treeConfig(n, 2) },
		"tree4+comb": func(n int) MultiHopConfig { return treeConfig(n, 4) },
		"mesh+comb":  meshConfig,
	}
	kinds := []mem.Kind{mem.AddI64, mem.AddF64, mem.FetchAddI64}
	for name, shape := range shapes {
		for _, nodes := range []int{2, 3, 5, 8, 9} {
			for _, faults := range []bool{false, true} {
				for _, legacy := range []bool{false, true} {
					cfg := shape(nodes)
					cfg.Combine = true
					cfg.LegacyStepping = legacy
					m := NewMultiHop(cfg)
					if faults {
						fc := fault.DefaultChaos()
						fc.NetDropRate, fc.NetDupRate = 0.05, 0.02
						m.SetFaults(fc, name)
					}
					sent, got := map[key]float64{}, map[key]float64{}
					next := xorshift(uint64(7 + nodes))
					now := uint64(0)
					recv := func(d int, p Packet) {
						got[key{p.Dst, p.Req.Kind, p.Req.Addr}] += value(p)
					}
					for c := 0; c < 600; c++ {
						for src := 0; src < nodes; src++ {
							if next(3) == 0 {
								continue
							}
							kind, v := kinds[next(len(kinds))], next(100)
							p := Packet{Src: int32(src), Dst: int32(next(min(nodes, 3))),
								Req: mem.Request{Kind: kind, Addr: mem.Addr(next(4)), Val: mem.I64(int64(v))}}
							if kind.IsFP() {
								p.Req.Val = mem.F64(float64(v))
							}
							switch next(8) {
							case 0:
								p.Seq = uint64(c + 1)
							case 1:
								p.Ack = true
							}
							if m.Send(p) {
								sent[key{p.Dst, p.Req.Kind, p.Req.Addr}] += value(p)
							}
						}
						mhPump(m, &now, 1, recv)
					}
					for c := 0; c < 20000 && m.Busy(); c++ {
						mhPump(m, &now, 1, recv)
					}
					label := fmt.Sprintf("%s/n%d/faults=%v/legacy=%v", name, nodes, faults, legacy)
					if m.Busy() {
						t.Fatalf("%s: fabric still busy", label)
					}
					for k, v := range sent {
						if got[k] != v {
							t.Fatalf("%s: %+v received %v, sent %v", label, k, got[k], v)
						}
					}
				}
			}
		}
	}
	if probes == 0 || hits == 0 {
		t.Fatalf("%d lookups, %d merges: the traffic never exercised the index", probes, hits)
	}
}

// TestCombineIndexKeys stages same-(destination, address) packets of two
// kinds at one switch: each merges only with its own kind, and a sequenced
// packet or an acknowledgment with the key of a staged packet is never
// looked up, so it travels on its own.
func TestCombineIndexKeys(t *testing.T) {
	cfg := treeConfig(4, 2)
	cfg.Combine = true
	m := NewMultiHop(cfg)
	f64 := func(v float64) Packet {
		return Packet{Src: 1, Dst: 0, Req: mem.Request{Kind: mem.AddF64, Addr: 1, Val: mem.F64(v)}}
	}
	sequenced := addPkt(1, 0, 1, 16)
	sequenced.Seq = 9
	ack := addPkt(1, 0, 1, 32)
	ack.Ack = true
	for _, p := range []Packet{
		addPkt(1, 0, 1, 1),
		f64(2),
		addPkt(1, 0, 1, 4), // merges into the AddI64 packet
		f64(8),             // merges into the AddF64 packet
		sequenced,
		ack,
	} {
		if !m.Send(p) {
			t.Fatalf("send of %+v refused", p)
		}
	}
	var got []Packet
	now := uint64(0)
	mhPump(m, &now, 200, func(d int, p Packet) { got = append(got, p) })
	if st := m.Stats(); st.Combined != 2 {
		t.Fatalf("combined %d, want 2", st.Combined)
	}
	want := map[string]bool{"AddI64 5 seq=0 ack=false": true, "AddF64 10 seq=0 ack=false": true,
		"AddI64 16 seq=9 ack=false": true, "AddI64 32 seq=0 ack=true": true}
	if len(got) != len(want) {
		t.Fatalf("delivered %d packets, want %d: %+v", len(got), len(want), got)
	}
	for _, p := range got {
		if s := fmt.Sprintf("%v %v seq=%d ack=%v", p.Req.Kind, value(p), p.Seq, p.Ack); !want[s] {
			t.Fatalf("unexpected delivery %q", s)
		}
	}
}

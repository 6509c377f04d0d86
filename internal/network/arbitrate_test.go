package network

import (
	"slices"
	"testing"

	"scatteradd/internal/fault"
)

// probeStep is step with the reference arbitration: for each output, in
// port order, up to WordsPerCyc times, probe every input from the output's
// round-robin pointer on for one whose head packet targets the output and
// that has bandwidth left, while the output's wire has room; grant the first
// found and move the pointer past it. It costs O(ports²) a cycle, which is
// why Crossbar arbitrates from candidate lists instead.
func probeStep(x *Crossbar, now uint64) bool {
	if x.held == 0 {
		return false
	}
	delivered := x.deliver(now)
	n, bw := x.cfg.Nodes, x.cfg.WordsPerCyc
	clear(x.sentFrom)
	for o := 0; o < n; o++ {
		for g := 0; g < bw; g++ {
			in := -1
			for k := 0; k < n && in < 0 && !x.wireFull(o); k++ {
				i := (x.rr[o] + k) % n
				if q := x.inputs[i]; q != nil && x.sentFrom[i] < bw {
					if h := q.Peek(); h != nil && int(x.slab.at(*h).out) == o {
						in = i
					}
				}
			}
			if in < 0 {
				break
			}
			x.rr[o] = (in + 1) % n
			x.sentFrom[in]++
			x.grantTo(o, in, now)
		}
	}
	return x.countStalls() || delivered
}

// FuzzCrossbarArbitration drives a crossbar and a twin stepped by probeStep
// with the same traffic — saturating bursts at a hot output, a uniform tail,
// bounded draining and, when faults is non-zero, injected drops and
// duplicates — and requires every cycle the same send acceptances, step
// results, deliveries, Stats and round-robin pointers. The seeds cover 1, 2,
// 3 and 8 words per cycle on 2, 5, 9 and 33 ports, with faults off and on.
func FuzzCrossbarArbitration(f *testing.F) {
	for _, words := range []uint8{1, 2, 3, 8} {
		for _, ports := range []uint8{2, 5, 9, 33} {
			for _, faults := range []uint8{0, 40} {
				// About 2 sends per port and cycle, half of them to
				// output 0, into 8-packet inputs; 2-packet outputs and
				// 3-packet wires force back-pressure.
				f.Add(ports-1, words-1, uint8(7), uint8(1), uint8(3), uint8(4), faults, 2*ports, uint8(4), uint8(1), uint64(ports)*31+uint64(words))
			}
		}
	}
	f.Fuzz(func(t *testing.T, ports, words, inDepth, outDepth, wireDepth, latency, faults, load, hot, drain uint8, seed uint64) {
		cfg := Config{
			Nodes:        1 + int(ports)%40,
			WordsPerCyc:  1 + int(words)%8,
			InputQDepth:  1 + int(inDepth)%16,
			OutputQDepth: 1 + int(outDepth)%8,
			WireDepth:    int(wireDepth) % 8,
			Latency:      int(latency) % 8,
		}
		x, ref := New(cfg), New(cfg)
		if faults > 0 {
			rate := float64(faults) / 255 * 0.3
			fc := fault.Config{Seed: seed, NetDropRate: rate, NetDupRate: rate}.WithDefaults()
			x.SetFaults(fc, "twin")
			ref.SetFaults(fc, "twin")
		}
		rng := seed | 1
		next := func(n int) int {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int(rng % uint64(n))
		}
		sends := 1 + int(load)%(4*cfg.Nodes)
		for cycle := uint64(0); cycle < 600; cycle++ {
			for k := 0; cycle < 400 && k < sends; k++ {
				src, dst := next(cfg.Nodes), next(cfg.Nodes)
				if next(8) < int(hot)%9 {
					dst = 0
				}
				p := tagged(src, dst, int(cycle)<<12|k)
				if a, b := x.Send(p), ref.Send(p); a != b {
					t.Fatalf("cycle %d: send %d->%d accepted %v, reference %v", cycle, src, dst, a, b)
				}
			}
			if a, b := x.step(cycle), probeStep(ref, cycle); a != b {
				t.Fatalf("cycle %d: step moved %v, reference %v", cycle, a, b)
			}
			if !slices.Equal(x.rr, ref.rr) {
				t.Fatalf("cycle %d: pointers %v, reference %v", cycle, x.rr, ref.rr)
			}
			for d := 0; d < cfg.Nodes; d++ {
				for k := 0; k <= (d+int(cycle))%(1+int(drain)%4); k++ {
					p, ok := x.Recv(d)
					q, okRef := ref.Recv(d)
					if ok != okRef || p != q {
						t.Fatalf("cycle %d output %d: received (%+v, %v), reference (%+v, %v)", cycle, d, p, ok, q, okRef)
					}
				}
			}
			if x.Stats() != ref.Stats() {
				t.Fatalf("cycle %d: stats %+v, reference %+v", cycle, x.Stats(), ref.Stats())
			}
		}
	})
}

// TestArbitrationRotates aims every input of a crossbar at output 0: the
// grants rotate over the inputs that hold a packet, one per cycle at 1 word
// per cycle and WordsPerCyc per cycle above it, and the empty input is
// never granted. The output receives packets in grant order.
func TestArbitrationRotates(t *testing.T) {
	const ports, empty, cycles = 5, 2, 4
	rotation := []int{0, 1, 3, 4}
	for _, words := range []int{1, 3, 8} {
		cfg := DefaultConfig(ports)
		cfg.WordsPerCyc = words
		cfg.OutputQDepth = 64
		x := New(cfg)
		for i := 0; i < ports; i++ {
			for k := 0; i != empty && k < 8; k++ {
				x.Send(tagged(i, 0, i))
			}
		}
		var got []int
		for cycle := uint64(0); cycle < 64; cycle++ {
			before := x.Stats().Grants
			x.Tick(cycle)
			if g := x.Stats().Grants - before; cycle < cycles && g != uint64(words) {
				t.Fatalf("words %d cycle %d: %d grants, want %d", words, cycle, g, words)
			}
			for p, ok := x.Recv(0); ok; p, ok = x.Recv(0) {
				got = append(got, tag(p))
			}
		}
		for k := 0; k < cycles*words; k++ {
			if want := rotation[k%len(rotation)]; got[k] != want {
				t.Fatalf("words %d: grant %d went to input %d, want %d (order %v)", words, k, got[k], want, got[:cycles*words])
			}
		}
		if slices.Contains(got, empty) {
			t.Fatalf("words %d: the empty input %d was granted", words, empty)
		}
	}
}

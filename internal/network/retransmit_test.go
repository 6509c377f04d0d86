package network

import (
	"fmt"
	"strings"
	"testing"

	"scatteradd/internal/fault"
	"scatteradd/internal/sim"
)

// TestRetransmitBuffer walks one buffer through holds, acks in and out of
// order, a refused resend, the capped backoff and the give-up.
func TestRetransmitBuffer(t *testing.T) {
	fc := fault.Config{RetryTimeout: 10, RetryBackoffCap: 2, MaxRetries: 4}
	var b RetransmitBuffer
	if b.Len() != 0 || b.NextDeadline() != sim.Never {
		t.Fatalf("empty buffer: len %d, next %d", b.Len(), b.NextDeadline())
	}
	for seq := uint64(1); seq <= 3; seq++ {
		b.Hold(seq, tagged(0, 1, int(seq)), seq*10)
	}
	if _, ok := b.Ack(9); ok {
		t.Fatal("acked a sequence number never held")
	}
	if n, ok := b.Ack(2); !ok || n != 0 {
		t.Fatalf("Ack(2) = %d, %v; want 0 resends", n, ok)
	}
	if b.Len() != 2 || b.NextDeadline() != 10 {
		t.Fatalf("after ack: len %d, next %d", b.Len(), b.NextDeadline())
	}
	var sent []int
	accept := func(p Packet) bool { sent = append(sent, tag(p)); return true }
	refuse := func(Packet) bool { return false }

	// At cycle 30 both remaining packets are due; a refusal stops the sweep
	// at the oldest and leaves both due.
	if n := b.Resend(30, &fc, refuse); n != 0 || b.NextDeadline() != 10 {
		t.Fatalf("refused resend: resent %d, next %d", n, b.NextDeadline())
	}
	if n := b.Resend(30, &fc, accept); n != 2 || fmt.Sprint(sent) != "[1 3]" {
		t.Fatalf("resent %d packets %v, want [1 3] oldest first", n, sent)
	}
	if n, ok := b.Ack(3); !ok || n != 1 {
		t.Fatalf("Ack(3) = %d, %v; want 1 resend", n, ok)
	}
	// Packet 1 resent once at 30 waits 10<<1; later resends wait 10<<2, the
	// cap, until the fifth attempt's deadline gives up.
	want := []uint64{50, 90, 130, 170}
	for i, at := range want {
		if next := b.NextDeadline(); next != at {
			t.Fatalf("deadline %d = %d, want %d", i, next, at)
		}
		if i < len(want)-1 {
			b.Resend(at, &fc, accept)
		}
	}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "packet seq=1 0->1 unacked after 5 attempts") {
			t.Fatalf("panic %q, want the unacked packet named", msg)
		}
	}()
	b.Resend(170, &fc, accept)
}

// refRetransmit is the brute-force reference for RetransmitBuffer: every
// Resend walks every held packet and every deadline query scans them all.
type refRetransmit struct{ held []unacked }

func (r *refRetransmit) hold(seq uint64, p Packet, deadline uint64) {
	r.held = append(r.held, unacked{p: p, seq: seq, deadline: deadline})
}

func (r *refRetransmit) ack(seq uint64) (int, bool) {
	for i := range r.held {
		if r.held[i].seq == seq {
			n := r.held[i].attempt
			r.held = append(r.held[:i], r.held[i+1:]...)
			return n, true
		}
	}
	return 0, false
}

func (r *refRetransmit) resend(now uint64, fc *fault.Config, send func(Packet) bool) int {
	resent := 0
	for i := range r.held {
		h := &r.held[i]
		if now < h.deadline {
			continue
		}
		if h.attempt >= fc.MaxRetries {
			panic(fmt.Sprintf("network: packet seq=%d %d->%d unacked after %d attempts",
				h.seq, h.p.Src, h.p.Dst, h.attempt+1))
		}
		if !send(h.p) {
			break
		}
		h.attempt++
		resent++
		h.deadline = now + fc.RetryTimeout<<uint(min(h.attempt, fc.RetryBackoffCap))
	}
	return resent
}

func (r *refRetransmit) nextDeadline() uint64 {
	ev := sim.Never
	for _, h := range r.held {
		ev = min(ev, h.deadline)
	}
	return ev
}

// resendOutcome runs one Resend and returns what it sent, its count and
// its panic message ("" when it returned).
func resendOutcome(resend func(send func(Packet) bool) int, budget int) (sent []int, n int, msg string) {
	defer func() {
		if p := recover(); p != nil {
			msg = fmt.Sprint(p)
		}
	}()
	n = resend(func(p Packet) bool {
		if budget == 0 {
			return false // the link refuses: the sweep must stop here
		}
		budget--
		sent = append(sent, tag(p))
		return true
	})
	return sent, n, msg
}

// FuzzRetransmitBuffer drives a RetransmitBuffer and the brute-force
// reference through the same random sequence of holds, acks (of held,
// released and never-held sequence numbers), resends whose link refuses
// after a budget of sends, and clock advances. Each input byte is one
// operation: the low two bits pick it and the rest is its argument.
// Properties, checked after every operation: the same packets are resent
// in the same order with the same counts, acks report the same resends,
// Len and NextDeadline equal the reference's (the minimum found by
// scanning), and the MaxRetries panic fires at the same call with the same
// message.
func FuzzRetransmitBuffer(f *testing.F) {
	f.Add([]byte{0x00, 0x04, 0x08, 0x0f, 0x0e, 0x03, 0x12, 0x05})
	f.Fuzz(func(t *testing.T, ops []byte) {
		fc := fault.Config{RetryTimeout: 3, RetryBackoffCap: 2, MaxRetries: 3}
		var b RetransmitBuffer
		var ref refRetransmit
		now, seq := uint64(0), uint64(0)
		for i, op := range ops {
			arg := int(op >> 2)
			switch op & 3 {
			case 0: // hold a new packet, due arg%16 cycles from now
				seq++
				p := tagged(int(seq%5), int(seq%7), int(seq))
				b.Hold(seq, p, now+uint64(arg%16))
				ref.hold(seq, p, now+uint64(arg%16))
			case 1: // ack a sequence number, held or not
				s := uint64(arg) % (seq + 2)
				n, ok := b.Ack(s)
				wn, wok := ref.ack(s)
				if n != wn || ok != wok {
					t.Fatalf("op %d: Ack(%d) = %d, %v; reference %d, %v", i, s, n, ok, wn, wok)
				}
			case 2: // resend; the link takes arg%6 packets (5: all)
				budget := arg % 6
				if budget == 5 {
					budget = -1
				}
				sent, n, msg := resendOutcome(func(send func(Packet) bool) int { return b.Resend(now, &fc, send) }, budget)
				wsent, wn, wmsg := resendOutcome(func(send func(Packet) bool) int { return ref.resend(now, &fc, send) }, budget)
				if fmt.Sprint(sent) != fmt.Sprint(wsent) || n != wn || msg != wmsg {
					t.Fatalf("op %d: Resend(%d) sent %v (%d), panic %q; reference %v (%d), panic %q",
						i, now, sent, n, msg, wsent, wn, wmsg)
				}
				if msg != "" {
					return // the run gave up; both agree on where
				}
			case 3: // advance the clock
				now += uint64(arg % 8)
			}
			if b.Len() != len(ref.held) || b.NextDeadline() != ref.nextDeadline() {
				t.Fatalf("op %d: Len %d, NextDeadline %d; reference %d, %d",
					i, b.Len(), b.NextDeadline(), len(ref.held), ref.nextDeadline())
			}
		}
	})
}

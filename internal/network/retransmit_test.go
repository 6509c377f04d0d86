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

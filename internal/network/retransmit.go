package network

import (
	"fmt"

	"scatteradd/internal/fault"
	"scatteradd/internal/sim"
)

// RetransmitBuffer holds one sender's sent-but-unacknowledged packets, in
// send order, for retransmission with capped exponential backoff. A packet
// not acknowledged by its deadline is sent again; its n-th resend waits
// RetryTimeout<<min(n, RetryBackoffCap) cycles for the next deadline; and
// one still unacknowledged after MaxRetries resends panics the run — by
// then the loss is not transient and no bounded protocol recovers it.
//
// Both reliability layers keep their packets here: the multinode
// end-to-end link (one buffer per node, keyed by Packet.Seq) and the
// per-hop link of a multi-hop fabric (one buffer per switch input port,
// keyed by the hop sequence number).
//
// The buffer keeps its earliest deadline, so a Resend with nothing due and
// NextDeadline cost O(1): the end-to-end link resends on every cycle of
// every node, and the per-hop link on every cycle of every switch port.
type RetransmitBuffer struct {
	held []unacked
	next uint64 // earliest deadline in held; meaningless while held is empty
}

// unacked is one held packet.
type unacked struct {
	p        Packet
	seq      uint64
	deadline uint64 // cycle at which p is sent again
	attempt  int    // transmissions so far beyond the first
}

// Hold records p, just sent under sequence number seq, for resending unless
// it is acknowledged before cycle deadline.
func (b *RetransmitBuffer) Hold(seq uint64, p Packet, deadline uint64) {
	if len(b.held) == 0 || deadline < b.next {
		b.next = deadline
	}
	b.held = append(b.held, unacked{p: p, seq: seq, deadline: deadline})
}

// Ack releases the packet held under seq and reports how many times it was
// resent. An ack for a packet no longer held — a duplicated ack, or one
// racing a resend — reports ok=false.
func (b *RetransmitBuffer) Ack(seq uint64) (resends int, ok bool) {
	for i := range b.held {
		if b.held[i].seq != seq {
			continue
		}
		resends = b.held[i].attempt
		deadline := b.held[i].deadline
		b.held = append(b.held[:i], b.held[i+1:]...)
		if deadline == b.next {
			b.next = b.earliest()
		}
		return resends, true
	}
	return 0, false
}

// Resend sends again, oldest first, every held packet whose deadline has
// come by now, and returns how many it resent. It stops at the first packet
// send refuses — younger packets would only pile into the same congestion —
// which stays due for the next call. A call that resends nothing changed no
// deadline, so the earliest stays as it was and is not rescanned: a resend
// that a full input refuses costs O(1) per cycle past the packets ahead of
// it. fc supplies RetryTimeout, RetryBackoffCap and MaxRetries.
func (b *RetransmitBuffer) Resend(now uint64, fc *fault.Config, send func(Packet) bool) int {
	if len(b.held) == 0 || now < b.next {
		return 0
	}
	resent := 0
	for i := range b.held {
		h := &b.held[i]
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
	if resent > 0 {
		b.next = b.earliest()
	}
	return resent
}

// NextDeadline returns the earliest resend deadline, or sim.Never when the
// buffer is empty.
func (b *RetransmitBuffer) NextDeadline() uint64 {
	if len(b.held) == 0 {
		return sim.Never
	}
	return b.next
}

// earliest scans for the earliest deadline held (sim.Never when empty).
func (b *RetransmitBuffer) earliest() uint64 {
	ev := sim.Never
	for i := range b.held {
		ev = min(ev, b.held[i].deadline)
	}
	return ev
}

// Len returns the number of packets held.
func (b *RetransmitBuffer) Len() int { return len(b.held) }

// Package sim provides the cycle-driven simulation primitives shared by all
// hardware models in this repository: bounded queues with back-pressure,
// fixed-latency delay pipes, a round-robin arbiter, and the due-set
// bookkeeping (Wake, Calendar) that lets an owner step only components with
// work.
//
// The simulator is cycle driven rather than event driven: every hardware
// component has a Tick(now) that advances it by one cycle, and its owner
// (machine.Machine, multinode.System) calls it in a fixed order and keeps
// the clock. Components communicate through bounded Queues; a full queue
// exerts back-pressure by refusing Push, exactly like a full hardware FIFO.
//
// # The NextEvent contract
//
// Every component also answers NextEvent(now), which lets its owner skip
// dead cycles:
//
//   - NextEvent(now) returns the earliest cycle >= now at which the
//     component might do observable work (change state, move an item, touch
//     a counter). A component with work pending in the current cycle returns
//     now; a fully drained component returns Never. The answer must be
//     conservative: returning a cycle earlier than the true next event is
//     always safe, later is not.
//   - NextEvent covers every input the component's Tick reads, including a
//     response pipe of a downstream component that only this one drains:
//     asked at the component's turn in a cycle, after the components before
//     it have acted, an answer above now means its Tick would be idle.
//     Owners rely on that to tick a component only when it is due, so the
//     answer should be O(1), kept in counters updated where state changes.
//   - An idle Tick changes nothing, so a cycle the component is not ticked
//     needs no catching up. Per-cycle samples (occupancy histograms, busy
//     counts) are counted at the cycles their level changes (stats.Level),
//     never once per Tick. An idle Tick is also cheap: each stage with
//     nothing to do costs O(1), guarded by an occupancy count the component
//     keeps of its own state. The guards never read NextEvent or the
//     owner's due set. Per-cycle stepping passes over a component whose
//     own quiet check (every guard false) holds and ticks the rest, so it
//     is a schedule independent of NextEvent: a wrong NextEvent, or a
//     wrong quiet check, shows up as a difference between the two modes.
//
// An owner jumps its clock only when no component reports an event at the
// current cycle, and then to the earliest answer.
package sim

import "fmt"

// Never is the NextEvent answer of a component that is fully drained: no
// future cycle exists at which it can do work on its own.
const Never = ^uint64(0)

// Wake is a component's entry in its owner's due set: the earliest cycle at
// which the owner must tick it. The component lowers the entry when work
// reaches it from outside its own Tick (an Accept, a fill), and lowers the
// entry of the component that drains a queue it pushes into; the owner
// raises it to the component's NextEvent after each Tick. The zero Wake does
// nothing: a component stepped every cycle needs none.
type Wake struct{ due *uint64 }

// NewWake returns a Wake that lowers *due.
func NewWake(due *uint64) Wake { return Wake{due: due} }

// At marks the component due no later than cycle t.
func (w Wake) At(t uint64) {
	if w.due != nil && t < *w.due {
		*w.due = t
	}
}

// Queue is a bounded FIFO with hardware-like flow control. The zero value is
// not usable; construct with NewQueue.
//
// The backing buffer is sized to the next power of two so index wrap uses a
// mask instead of a modulo; Cap, Full, and Push enforce the requested
// logical capacity, so flow-control semantics are unchanged.
type Queue[T any] struct {
	buf        []T // len(buf) is a power of two >= capacity
	mask       int
	capacity   int // logical capacity enforced by Push
	head, size int
}

// NewQueue returns an empty queue with the given capacity.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: queue capacity must be positive, got %d", capacity))
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Queue[T]{buf: make([]T, n), mask: n - 1, capacity: capacity}
}

// Cap reports the queue capacity.
func (q *Queue[T]) Cap() int { return q.capacity }

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int { return q.size }

// Empty reports whether the queue holds no items.
func (q *Queue[T]) Empty() bool { return q.size == 0 }

// Full reports whether a Push would fail.
func (q *Queue[T]) Full() bool { return q.size == q.capacity }

// Push appends v and reports whether there was room.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	q.buf[(q.head+q.size)&q.mask] = v
	q.size++
	return true
}

// MustPush appends v and panics if the queue is full. Use it only where the
// surrounding flow control guarantees space.
func (q *Queue[T]) MustPush(v T) {
	if !q.Push(v) {
		panic("sim: MustPush on full queue")
	}
}

// Peek returns the oldest item where it sits, without removing it, or nil
// when the queue is empty: a reader inspects or updates the item without a
// copy. The pointer stays valid until the item leaves the queue.
func (q *Queue[T]) Peek() *T {
	if q.size == 0 {
		return nil
	}
	return &q.buf[q.head]
}

// Pop removes and returns the oldest item. ok is false when empty.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.size == 0 {
		return v, false
	}
	v = q.buf[q.head]
	q.Drop()
	return v, true
}

// Drop removes the oldest item without returning it; a caller that has read
// it through Peek saves Pop's copy. Dropping from an empty queue is a no-op.
func (q *Queue[T]) Drop() {
	if q.size == 0 {
		return
	}
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & q.mask
	q.size--
}

// At returns the i-th oldest buffered item (0 == next to pop) where it sits.
// It panics if i is out of range; use it for CAM-style scans over in-flight
// entries, which read and update them in place.
func (q *Queue[T]) At(i int) *T {
	if i < 0 || i >= q.size {
		panic(fmt.Sprintf("sim: Queue.At(%d) with size %d", i, q.size))
	}
	return &q.buf[(q.head+i)&q.mask]
}

// delayItem is an in-flight item in a Delay pipe.
type delayItem[T any] struct {
	v     T
	ready uint64 // cycle at which the item may exit
}

// Delay models a fixed-latency, fully pipelined path (for example a wire or
// an SRAM access): an item pushed in cycle t becomes poppable in cycle
// t+latency. Throughput is limited only by the configured capacity.
type Delay[T any] struct {
	latency uint64
	q       *Queue[delayItem[T]]
}

// NewDelay returns a delay pipe with the given latency in cycles (latency 0
// makes an item available in the same cycle it was pushed) and buffer
// capacity.
func NewDelay[T any](latency int, capacity int) *Delay[T] {
	if latency < 0 {
		panic(fmt.Sprintf("sim: negative delay latency %d", latency))
	}
	return &Delay[T]{latency: uint64(latency), q: NewQueue[delayItem[T]](capacity)}
}

// Len reports the number of in-flight items.
func (d *Delay[T]) Len() int { return d.q.Len() }

// Full reports whether a Push would fail.
func (d *Delay[T]) Full() bool { return d.q.Full() }

// Push inserts v at cycle now; it becomes available at now+latency.
func (d *Delay[T]) Push(now uint64, v T) bool {
	return d.q.Push(delayItem[T]{v: v, ready: now + d.latency})
}

// Ready reports whether the head item has completed its latency by cycle now.
func (d *Delay[T]) Ready(now uint64) bool { return d.Peek(now) != nil }

// NextReady returns the cycle at which the head in-flight item becomes
// poppable, or Never when the pipe is empty. The head is the earliest:
// latency is fixed, so ready times are FIFO-ordered.
func (d *Delay[T]) NextReady() uint64 {
	it := d.q.Peek()
	if it == nil {
		return Never
	}
	return it.ready
}

// Peek returns the head item where it sits if it is ready at cycle now, or
// nil: a failed pop of a large item copies nothing. The pointer stays valid
// until the item leaves the pipe.
func (d *Delay[T]) Peek(now uint64) *T {
	it := d.q.Peek()
	if it == nil || it.ready > now {
		return nil
	}
	return &it.v
}

// Drop removes the head item without returning it, whether or not it is
// ready; pair it with Peek.
func (d *Delay[T]) Drop() { d.q.Drop() }

// Pop removes the head item if it is ready at cycle now.
func (d *Delay[T]) Pop(now uint64) (v T, ok bool) {
	p := d.Peek(now)
	if p == nil {
		return v, false
	}
	v = *p
	d.q.Drop()
	return v, true
}

// RoundRobin is a fair arbiter over n requesters.
type RoundRobin struct {
	n    int
	next int
}

// NewRoundRobin returns an arbiter over n requesters.
func NewRoundRobin(n int) *RoundRobin {
	if n <= 0 {
		panic(fmt.Sprintf("sim: round-robin size must be positive, got %d", n))
	}
	return &RoundRobin{n: n}
}

// Pick returns the first index at or after the rotating priority pointer for
// which want(i) is true, advancing the pointer past the grant. It returns -1
// when no requester is ready.
func (r *RoundRobin) Pick(want func(i int) bool) int {
	for k := 0; k < r.n; k++ {
		i := (r.next + k) % r.n
		if want(i) {
			r.next = (i + 1) % r.n
			return i
		}
	}
	return -1
}

// Start returns the current priority pointer: the index Pick would test
// first. Together with Grant it lets a caller that already knows the ready
// set reproduce Pick's choice without probing every requester — the wide
// crossbars use this to arbitrate in O(ready) instead of O(n).
func (r *RoundRobin) Start() int { return r.next }

// Grant advances the priority pointer past requester i, exactly as a
// successful Pick of i would. A caller that selects from a known ready set
// must call Grant for the arbiter to stay fair (and to match Pick's state
// transitions bit-for-bit).
func (r *RoundRobin) Grant(i int) {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("sim: round-robin grant %d outside %d requesters", i, r.n))
	}
	r.next = (i + 1) % r.n
}

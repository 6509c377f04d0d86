package dram

import (
	"fmt"

	"scatteradd/internal/mem"
	"scatteradd/internal/sim"
	"scatteradd/internal/span"
)

// Uniform is the simplified memory model of the paper's sensitivity study
// (§4.4): "we run the experiments without a cache, and implement memory as a
// uniform bandwidth and latency structure. Throughput is modeled by a fixed
// cycle interval between successive memory word accesses, and latency by a
// fixed value." It transacts in single words and implements port.Word.
type Uniform struct {
	latency  uint64 // cycles from issue to response
	interval uint64 // minimum cycles between successive word accesses
	store    *mem.Store

	queue    []mem.Request // accepted, not yet issued
	depth    int
	nextFree uint64 // first cycle the next access may issue
	pending  []pendingWord
	resps    []mem.Response

	reads, writes uint64

	tr    *span.Tracer
	track string

	// wake is the memory's entry in its owner's due set; upWake is the
	// entry of the scatter-add unit that pops its responses.
	wake, upWake sim.Wake
}

type pendingWord struct {
	resp  mem.Response
	ready uint64
}

// NewUniform returns a uniform memory with the given access latency,
// inter-access interval (both in cycles), and request-queue depth.
func NewUniform(latency, interval, depth int) *Uniform {
	if latency < 0 || interval < 1 || depth < 1 {
		panic(fmt.Sprintf("dram: invalid uniform memory parameters lat=%d int=%d depth=%d",
			latency, interval, depth))
	}
	return &Uniform{
		latency:  uint64(latency),
		interval: uint64(interval),
		store:    mem.NewStore(),
		depth:    depth,
	}
}

// Store exposes the functional memory image.
func (u *Uniform) Store() *mem.Store { return u.store }

// Accesses reports the number of word reads and writes serviced.
func (u *Uniform) Accesses() (reads, writes uint64) { return u.reads, u.writes }

// SetSpanTracer installs a request-lifecycle tracer; track names the
// memory in exported traces. A nil tracer disables tracing.
func (u *Uniform) SetSpanTracer(tr *span.Tracer, track string) {
	u.tr = tr
	u.track = track
}

// SetWake installs the memory's entry in its owner's due set (an accepted
// access marks it due at its issue slot) and the entry of the unit that pops
// its responses (an issued read marks that unit due when it completes).
func (u *Uniform) SetWake(self, up sim.Wake) { u.wake, u.upWake = self, up }

// CanAccept reports whether the request queue has room.
func (u *Uniform) CanAccept(now uint64) bool { return len(u.queue) < u.depth }

// Accept enqueues a word read or write. Scatter-add kinds are rejected with
// a panic: the uniform memory sits below the scatter-add unit, which has
// already reduced them to reads and writes.
func (u *Uniform) Accept(now uint64, r mem.Request) bool {
	if r.Kind != mem.Read && r.Kind != mem.Write {
		panic(fmt.Sprintf("dram: uniform memory cannot service %v", r.Kind))
	}
	if len(u.queue) >= u.depth {
		return false
	}
	if u.tr != nil {
		// Queue wait and service are both attributed to the memory stage;
		// there is no cache in the uniform configuration.
		u.tr.OpStage(r.Node, r.ID, span.StageDRAM, now)
	}
	u.queue = append(u.queue, r)
	u.wake.At(max(now, u.nextFree))
	return true
}

// Tick issues at most one queued access per cycle, respecting the
// inter-access interval, and retires pending responses.
func (u *Uniform) Tick(now uint64) {
	if len(u.queue) > 0 && now >= u.nextFree {
		r := u.queue[0]
		u.queue = u.queue[1:]
		u.nextFree = now + u.interval
		if r.Kind == mem.Write {
			u.writes++
			u.store.StoreWord(r.Addr, r.Val)
			if u.tr != nil {
				u.tr.OpEnd(r.Node, r.ID, now)
				u.tr.SpanAsync(u.track, fmt.Sprintf("wr a=%d", r.Addr), now, now+u.interval)
			}
			return
		}
		u.reads++
		if u.tr != nil {
			u.tr.SpanAsync(u.track, fmt.Sprintf("rd a=%d", r.Addr), now, now+u.latency)
		}
		u.pending = append(u.pending, pendingWord{
			resp: mem.Response{
				ID: r.ID, Kind: mem.Read, Addr: r.Addr,
				Val: u.store.Load(r.Addr), Node: r.Node,
			},
			ready: now + u.latency,
		})
		u.upWake.At(now + u.latency)
	}
}

// NextEvent reports the earliest cycle at which the memory can do work (see
// the sim package doc): the next issue slot when a request is queued, else
// Never. A pending read completes without a Tick: the scatter-add unit pops
// it and reports its completion through NextResponse.
func (u *Uniform) NextEvent(now uint64) uint64 {
	if len(u.queue) == 0 {
		return sim.Never
	}
	return max(now, u.nextFree)
}

// PopResponse returns one completed read response, if ready.
func (u *Uniform) PopResponse(now uint64) (mem.Response, bool) {
	if len(u.pending) > 0 && u.pending[0].ready <= now {
		r := u.pending[0].resp
		u.pending = u.pending[1:]
		return r, true
	}
	return mem.Response{}, false
}

// NextResponse reports the cycle the head pending read completes (see
// port.Word): issues are monotone with fixed latency, so the head is the
// earliest.
func (u *Uniform) NextResponse(now uint64) uint64 {
	if len(u.pending) == 0 {
		return sim.Never
	}
	return max(now, u.pending[0].ready)
}

// Busy reports whether any access is queued or in flight.
func (u *Uniform) Busy() bool { return len(u.queue) > 0 || len(u.pending) > 0 }

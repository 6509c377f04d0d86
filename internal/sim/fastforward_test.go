package sim

import (
	"reflect"
	"testing"
)

// pulse is a minimal fast-forwardable component: it does observable work
// every period cycles (phase-aligned to cycle 0) and is quiescent in
// between.
type pulse struct {
	period uint64
	work   int // Ticks that performed work
	ticks  int
}

func (p *pulse) Tick(now uint64) {
	p.ticks++
	if now%p.period == 0 {
		p.work++
	}
}

func (p *pulse) NextEvent(now uint64) uint64 {
	if now%p.period == 0 {
		return now
	}
	return (now/p.period + 1) * p.period
}

// runPulses drives a fresh engine over pulse components with the given
// periods for limit cycles and returns the components.
func runPulses(ff bool, limit uint64, sampleEvery uint64, periods ...uint64) ([]*pulse, []uint64) {
	e := NewEngine()
	ps := make([]*pulse, len(periods))
	for i, period := range periods {
		ps[i] = &pulse{period: period}
		e.Add(ps[i])
	}
	var sampled []uint64
	if sampleEvery > 0 {
		e.SetSampler(sampleEvery, func(now uint64) { sampled = append(sampled, now) })
	}
	e.SetFastForward(ff)
	e.RunUntil(func() bool { return false }, limit)
	return ps, sampled
}

// TestEngineFastForwardMatchesPerCycle is the unit-level cycle-exactness
// check: a fast-forward run must see exactly the same work cycles as
// per-cycle stepping, with strictly fewer Ticks.
func TestEngineFastForwardMatchesPerCycle(t *testing.T) {
	const limit = 1000
	fast, _ := runPulses(true, limit, 0, 7, 13)
	slow, _ := runPulses(false, limit, 0, 7, 13)
	for i := range fast {
		if fast[i].work != slow[i].work {
			t.Errorf("pulse %d: work %d under fast-forward, %d per-cycle", i, fast[i].work, slow[i].work)
		}
		if slow[i].ticks != limit {
			t.Errorf("pulse %d: %d per-cycle ticks, want %d", i, slow[i].ticks, limit)
		}
		if fast[i].ticks >= slow[i].ticks {
			t.Errorf("pulse %d: fast-forward run ticked %d times, per-cycle %d: it never jumped", i, fast[i].ticks, slow[i].ticks)
		}
	}
}

// TestEngineFastForwardStopsAtEveryEvent checks the engine ticks (not
// skips) every cycle in which any component reports work: with periods 3
// and 5, work cycles are the union of both multiples.
func TestEngineFastForwardStopsAtEveryEvent(t *testing.T) {
	const limit = 90
	ps, _ := runPulses(true, limit, 0, 3, 5)
	want := 0
	for c := uint64(0); c < limit; c++ {
		if c%3 == 0 || c%5 == 0 {
			want++
		}
	}
	for i, p := range ps {
		if p.ticks != want {
			t.Errorf("pulse %d ticked %d times, want %d (union of work cycles)", i, p.ticks, want)
		}
	}
}

// TestEngineSamplerSequenceUnderFastForward is the sampler regression: with
// every=N the sampler must observe exactly the same now sequence under
// fast-forward as under per-cycle stepping, including when a component's
// quiescent stretch spans several multiples of N (period 64 >> every 5
// forces jumps that would cross multiple sample points if not capped).
func TestEngineSamplerSequenceUnderFastForward(t *testing.T) {
	const limit, every = 640, 5
	_, fast := runPulses(true, limit, every, 64)
	_, slow := runPulses(false, limit, every, 64)
	if len(fast) == 0 {
		t.Fatal("sampler never fired under fast-forward")
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("sampler now sequence differs:\nfast-forward: %v\nper-cycle:    %v", fast, slow)
	}
	for i, now := range fast {
		if want := uint64((i + 1) * every); now != want {
			t.Fatalf("sample %d fired at %d, want %d", i, now, want)
		}
	}
}

// TestEngineFastForwardRequiresAllComponents checks a single Ticker that
// does not implement FastForwarder disables jumping entirely.
func TestEngineFastForwardRequiresAllComponents(t *testing.T) {
	e := NewEngine()
	p := &pulse{period: 50}
	ticks := 0
	e.Add(p)
	e.Add(TickFunc(func(uint64) { ticks++ }))
	e.RunUntil(func() bool { return false }, 200)
	if ticks != 200 || p.ticks != 200 {
		t.Fatalf("ticks=%d pulse.ticks=%d, want 200 each (no jumps with a plain Ticker)", ticks, p.ticks)
	}
}

// TestEngineFastForwardHonorsLimit checks jumps never overshoot RunUntil's
// limit even when the next event lies far beyond it.
func TestEngineFastForwardHonorsLimit(t *testing.T) {
	e := NewEngine()
	p := &pulse{period: 1 << 40}
	e.Add(p)
	now, ok := e.RunUntil(func() bool { return false }, 123)
	if ok || now != 123 || e.Now() != 123 {
		t.Fatalf("now=%d ok=%v, want exactly the 123-cycle limit", now, ok)
	}
}

// TestEngineFastForwardDoneAtEvent checks done() is re-evaluated at every
// event cycle: the run must stop at the first work cycle satisfying it, not
// at the horizon beyond.
func TestEngineFastForwardDoneAtEvent(t *testing.T) {
	e := NewEngine()
	p := &pulse{period: 17}
	e.Add(p)
	now, ok := e.RunUntil(func() bool { return p.work >= 3 }, 1000)
	if !ok || now != 2*17+1 {
		t.Fatalf("now=%d ok=%v, want stop right after the third work pulse at cycle %d", now, ok, 2*17)
	}
}

// TestEngineFastForwardDrained checks an all-Never machine jumps straight
// to the limit without ticking.
func TestEngineFastForwardDrained(t *testing.T) {
	e := NewEngine()
	nb := &neverBusy{}
	e.Add(nb)
	now, ok := e.RunUntil(func() bool { return false }, 1_000_000)
	if ok || now != 1_000_000 {
		t.Fatalf("now=%d ok=%v, want a single jump to the limit", now, ok)
	}
	if nb.ticks != 0 {
		t.Fatalf("ticks=%d, want 0: the whole range is one jump", nb.ticks)
	}
}

// neverBusy is a fully drained component.
type neverBusy struct{ ticks int }

func (n *neverBusy) Tick(uint64)             { n.ticks++ }
func (n *neverBusy) NextEvent(uint64) uint64 { return Never }

// rrTicker arbitrates a RoundRobin over sparse want sets: requester i wants
// service only in cycles where now%periods[i] == 0. Grants are recorded so
// fast-forward and per-cycle runs can be compared; the arbiter pointer must
// not advance during skipped cycles (nobody was granted).
type rrTicker struct {
	rr      *RoundRobin
	periods []uint64
	grants  []int
}

func (r *rrTicker) Tick(now uint64) {
	if g := r.rr.Pick(func(i int) bool { return now%r.periods[i] == 0 }); g >= 0 {
		r.grants = append(r.grants, g)
	}
}

func (r *rrTicker) NextEvent(now uint64) uint64 {
	ev := Never
	for _, p := range r.periods {
		next := now
		if now%p != 0 {
			next = (now/p + 1) * p
		}
		if next < ev {
			ev = next
		}
	}
	return ev
}

// TestRoundRobinFairnessAcrossFastForward checks the arbiter grant sequence
// over sparse, interleaved want sets is identical whether the dead cycles
// between requests are ticked through or skipped.
func TestRoundRobinFairnessAcrossFastForward(t *testing.T) {
	run := func(ff bool) []int {
		e := NewEngine()
		r := &rrTicker{rr: NewRoundRobin(3), periods: []uint64{6, 10, 15}}
		e.Add(r)
		e.SetFastForward(ff)
		e.RunUntil(func() bool { return false }, 300)
		return r.grants
	}
	fast, slow := run(true), run(false)
	if len(fast) == 0 {
		t.Fatal("no grants recorded")
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("grant sequence differs:\nfast-forward: %v\nper-cycle:    %v", fast, slow)
	}
}

// TestQueueCapacityRounding checks NewQueue preserves the requested logical
// capacity while the backing buffer rounds up to a power of two.
func TestQueueCapacityRounding(t *testing.T) {
	for _, c := range []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 33, 100} {
		q := NewQueue[int](c)
		if q.Cap() != c {
			t.Errorf("NewQueue(%d).Cap() = %d", c, q.Cap())
		}
		if n := len(q.buf); n&(n-1) != 0 || n < c {
			t.Errorf("NewQueue(%d) buffer length %d: want power of two >= capacity", c, n)
		}
		for i := 0; i < c; i++ {
			if !q.Push(i) {
				t.Fatalf("NewQueue(%d): push %d refused below capacity", c, i)
			}
		}
		if q.Push(-1) {
			t.Errorf("NewQueue(%d): push accepted at logical capacity", c)
		}
		if !q.Full() {
			t.Errorf("NewQueue(%d): Full() false at capacity", c)
		}
	}
}

// TestQueueNonPow2WrapAround exercises mask-indexed wrap with a capacity
// below the rounded buffer size, where head can sweep through slots Push
// never fills at steady state.
func TestQueueNonPow2WrapAround(t *testing.T) {
	q := NewQueue[int](5) // buffer 8
	next, out := 0, 0
	for round := 0; round < 20; round++ {
		for q.Push(next) {
			next++
		}
		for i := 0; i < 3; i++ {
			v, ok := q.Pop()
			if !ok || v != out {
				t.Fatalf("round %d: got %d,%v want %d", round, v, ok, out)
			}
			out++
		}
	}
}

// TestHotPathAllocationFree pins the zero-allocation property of the
// steady-state simulation hot path: queue and delay traffic and the
// fast-forward engine loop itself must not allocate per operation.
func TestHotPathAllocationFree(t *testing.T) {
	q := NewQueue[int](6)
	if n := testing.AllocsPerRun(100, func() {
		q.Push(1)
		q.Push(2)
		q.Pop()
		q.Pop()
	}); n != 0 {
		t.Errorf("Queue push/pop allocates %v per op", n)
	}

	d := NewDelay[int](3, 6)
	now := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		d.Push(now, int(now))
		d.Pop(now)
		now++
	}); n != 0 {
		t.Errorf("Delay push/pop allocates %v per op", n)
	}

	e := NewEngine()
	e.Add(&pulse{period: 64})
	done := func() bool { return false }
	limit := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		limit += 1024
		e.RunUntil(done, limit)
	}); n != 0 {
		t.Errorf("fast-forward RunUntil allocates %v per 1024-cycle window", n)
	}
}

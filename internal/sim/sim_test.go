package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue[int](4)
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push succeeded on full queue")
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop succeeded on empty queue")
	}
}

func TestQueueWrapAround(t *testing.T) {
	q := NewQueue[int](3)
	next := 0
	// Interleave pushes and pops so head wraps several times.
	for round := 0; round < 10; round++ {
		q.MustPush(round * 2)
		q.MustPush(round*2 + 1)
		for i := 0; i < 2; i++ {
			v, ok := q.Pop()
			if !ok || v != next {
				t.Fatalf("round %d: got %d want %d", round, v, next)
			}
			next++
		}
	}
	if !q.Empty() {
		t.Fatal("queue should be empty")
	}
}

func TestQueueAt(t *testing.T) {
	q := NewQueue[string](4)
	q.MustPush("a")
	q.MustPush("b")
	q.Pop()
	q.MustPush("c")
	q.MustPush("d")
	want := []string{"b", "c", "d"}
	for i, w := range want {
		if got := *q.At(i); got != w {
			t.Errorf("At(%d) = %q want %q", i, got, w)
		}
	}
}

func TestQueueAtPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q := NewQueue[int](2)
	q.MustPush(1)
	q.At(1)
}

func TestQueueZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewQueue[int](0)
}

// Property: any interleaving of pushes and pops preserves FIFO order and
// never exceeds capacity.
func TestQueueFIFOProperty(t *testing.T) {
	f := func(ops []bool) bool {
		q := NewQueue[int](8)
		var ref []int
		next := 0
		for _, push := range ops {
			if push {
				if q.Push(next) {
					ref = append(ref, next)
				} else if len(ref) != 8 {
					return false // refused push while not full
				}
				next++
			} else {
				v, ok := q.Pop()
				if ok {
					if len(ref) == 0 || v != ref[0] {
						return false
					}
					ref = ref[1:]
				} else if len(ref) != 0 {
					return false // refused pop while not empty
				}
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDelayLatency(t *testing.T) {
	d := NewDelay[int](3, 8)
	if !d.Push(10, 42) {
		t.Fatal("push failed")
	}
	if got := d.NextReady(); got != 13 {
		t.Fatalf("NextReady = %d, want 13", got)
	}
	for now := uint64(10); now < 13; now++ {
		if d.Ready(now) {
			t.Fatalf("item ready too early at cycle %d", now)
		}
		if _, ok := d.Pop(now); ok {
			t.Fatalf("pop succeeded too early at cycle %d", now)
		}
	}
	v, ok := d.Pop(13)
	if !ok || v != 42 {
		t.Fatalf("pop at 13: got %d ok=%v", v, ok)
	}
	// Drop discards the head before it is ready.
	d.Push(20, 7)
	d.Drop()
	if d.Len() != 0 || d.NextReady() != Never {
		t.Fatalf("after Drop: Len %d, NextReady %d", d.Len(), d.NextReady())
	}
}

// TestWake: a Wake lowers the due cycle it holds and never raises it, and
// the zero Wake does nothing.
func TestWake(t *testing.T) {
	due := Never
	w := NewWake(&due)
	w.At(10)
	w.At(20)
	if due != 10 {
		t.Fatalf("due = %d, want 10", due)
	}
	Wake{}.At(5)
}

func TestDelayZeroLatency(t *testing.T) {
	d := NewDelay[int](0, 2)
	d.Push(5, 7)
	if v, ok := d.Pop(5); !ok || v != 7 {
		t.Fatalf("zero-latency pop: got %d ok=%v", v, ok)
	}
}

func TestDelayPipelining(t *testing.T) {
	// Items pushed on consecutive cycles exit on consecutive cycles.
	d := NewDelay[int](4, 16)
	for c := uint64(0); c < 5; c++ {
		d.Push(c, int(c))
	}
	for c := uint64(4); c < 9; c++ {
		v, ok := d.Pop(c)
		if !ok || v != int(c-4) {
			t.Fatalf("cycle %d: got %d ok=%v", c, v, ok)
		}
		// Only one item should exit per cycle here.
		if d.Ready(c) && c < 8 {
			// next item was pushed one cycle later, so it must not be ready
			t.Fatalf("cycle %d: second item ready in same cycle", c)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("delay not drained: %d left", d.Len())
	}
}

func TestDelayBackpressure(t *testing.T) {
	d := NewDelay[int](100, 2)
	if !d.Push(0, 1) || !d.Push(0, 2) {
		t.Fatal("initial pushes failed")
	}
	if d.Push(0, 3) {
		t.Fatal("push succeeded on full delay")
	}
	if !d.Full() {
		t.Fatal("Full() should be true")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	rr := NewRoundRobin(3)
	all := func(int) bool { return true }
	got := []int{rr.Pick(all), rr.Pick(all), rr.Pick(all), rr.Pick(all)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pick sequence %v, want %v", got, want)
		}
	}
}

// TestRoundRobinStartGrant proves the Start/Grant pair tracks Pick exactly:
// a caller selecting the cyclically-first ready index from Start and then
// Granting it leaves the arbiter in the same state as Pick over the same
// ready set — the contract the crossbar's fast arbitration path relies on.
func TestRoundRobinStartGrant(t *testing.T) {
	byPick, byGrant := NewRoundRobin(5), NewRoundRobin(5)
	rng := uint64(1)
	for step := 0; step < 200; step++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		ready := rng % 32 // bitmask of ready requesters
		want := func(i int) bool { return ready&(1<<i) != 0 }
		picked := byPick.Pick(want)

		start := byGrant.Start()
		best, bestKey := -1, 5
		for i := 0; i < 5; i++ {
			if !want(i) {
				continue
			}
			k := i - start
			if k < 0 {
				k += 5
			}
			if k < bestKey {
				best, bestKey = i, k
			}
		}
		if best >= 0 {
			byGrant.Grant(best)
		}
		if picked != best || byPick.Start() != byGrant.Start() {
			t.Fatalf("step %d ready=%05b: Pick=%d Start/Grant=%d (pointers %d vs %d)",
				step, ready, picked, best, byPick.Start(), byGrant.Start())
		}
	}
}

func TestRoundRobinGrantOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRoundRobin(3).Grant(3)
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	rr := NewRoundRobin(4)
	only2 := func(i int) bool { return i == 2 }
	for k := 0; k < 3; k++ {
		if got := rr.Pick(only2); got != 2 {
			t.Fatalf("pick = %d want 2", got)
		}
	}
	none := func(int) bool { return false }
	if got := rr.Pick(none); got != -1 {
		t.Fatalf("pick with no requesters = %d want -1", got)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Add(TickFunc(func(uint64) { count++ }))
	cyc, ok := e.RunUntil(func() bool { return count >= 10 }, 100)
	if !ok || cyc != 10 || count != 10 {
		t.Fatalf("cyc=%d ok=%v count=%d", cyc, ok, count)
	}
}

func TestEngineLimit(t *testing.T) {
	e := NewEngine()
	e.Add(TickFunc(func(uint64) {}))
	cyc, ok := e.RunUntil(func() bool { return false }, 50)
	if ok || cyc != 50 {
		t.Fatalf("cyc=%d ok=%v", cyc, ok)
	}
}

func TestEngineTickOrderAndNow(t *testing.T) {
	e := NewEngine()
	var order []int
	var nows []uint64
	e.Add(TickFunc(func(now uint64) { order = append(order, 1); nows = append(nows, now) }))
	e.Add(TickFunc(func(uint64) { order = append(order, 2) }))
	e.Step()
	e.Step()
	if len(order) != 4 || order[0] != 1 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("order = %v", order)
	}
	if nows[0] != 0 || nows[1] != 1 {
		t.Fatalf("nows = %v", nows)
	}
	if e.Now() != 2 {
		t.Fatalf("Now() = %d", e.Now())
	}
}

package sim

import (
	"reflect"
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

// TestRoundRobinFairnessAcrossFastForward checks that an owner may skip the
// cycles in which no requester wants service: over sparse, interleaved want
// sets, the grant sequence is the same whether those cycles call Pick (and
// grant nothing) or are jumped over.
func TestRoundRobinFairnessAcrossFastForward(t *testing.T) {
	periods := []uint64{6, 10, 15}
	run := func(skipIdle bool) []int {
		rr := NewRoundRobin(len(periods))
		var grants []int
		for now := uint64(0); now < 300; now++ {
			want := func(i int) bool { return now%periods[i] == 0 }
			idle := true
			for i := range periods {
				idle = idle && !want(i)
			}
			if skipIdle && idle {
				continue
			}
			if g := rr.Pick(want); g >= 0 {
				grants = append(grants, g)
			}
		}
		return grants
	}
	skipped, stepped := run(true), run(false)
	if len(skipped) == 0 {
		t.Fatal("no grants recorded")
	}
	if !reflect.DeepEqual(skipped, stepped) {
		t.Fatalf("grant sequence differs:\nidle cycles skipped: %v\nidle cycles stepped: %v", skipped, stepped)
	}
}

// TestDelayRingWraparound drives a small Delay far past its capacity so the
// internal ring buffer wraps many times, checking order and exit timing of
// every item. Delay is on the critical path of every FU, wire, and cache
// response in the simulator, and its wraparound behavior was previously only
// exercised indirectly.
func TestDelayRingWraparound(t *testing.T) {
	const latency, capacity, items = 2, 3, 100
	d := NewDelay[int](latency, capacity)
	now := uint64(0)
	popped := 0
	pushed := 0
	for popped < items {
		if pushed < items && d.Push(now, pushed) {
			pushed++
		}
		if v, ok := d.Pop(now); ok {
			if v != popped {
				t.Fatalf("cycle %d: popped %d, want %d (FIFO violated after wrap)", now, v, popped)
			}
			popped++
		}
		now++
		if now > items*10 {
			t.Fatalf("stuck: pushed %d popped %d", pushed, popped)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("delay not empty: %d", d.Len())
	}
}

// TestDelayRespectsLatencyAfterWrap verifies an item pushed after the ring
// has wrapped still waits its full latency.
func TestDelayRespectsLatencyAfterWrap(t *testing.T) {
	d := NewDelay[int](5, 2)
	now := uint64(0)
	// Cycle the ring a few times.
	for i := 0; i < 6; i++ {
		if !d.Push(now, i) {
			t.Fatalf("push %d refused", i)
		}
		now += 5
		if v, ok := d.Pop(now); !ok || v != i {
			t.Fatalf("pop %d: got %d ok=%v", i, v, ok)
		}
	}
	// After wrapping, a fresh item must still be invisible before latency.
	d.Push(now, 99)
	for dt := uint64(0); dt < 5; dt++ {
		if d.Ready(now + dt) {
			t.Fatalf("item ready %d cycles early after wrap", 5-dt)
		}
	}
	if v, ok := d.Pop(now + 5); !ok || v != 99 {
		t.Fatalf("final pop: got %d ok=%v", v, ok)
	}
}

// TestRoundRobinSparseFairness checks grant distribution when requesters are
// only intermittently ready: every ready requester must be granted before
// any requester is granted twice (within one rotation), and long-run grant
// counts must match each requester's duty cycle.
func TestRoundRobinSparseFairness(t *testing.T) {
	const n = 4
	rr := NewRoundRobin(n)
	grants := make([]int, n)
	// Requester i is ready on cycles where cycle%(i+1) == 0: requester 0
	// always, requester 3 a quarter of the time.
	for cycle := 0; cycle < 1200; cycle++ {
		ready := func(i int) bool { return cycle%(i+1) == 0 }
		if g := rr.Pick(ready); g >= 0 {
			grants[g]++
			if !ready(g) {
				t.Fatalf("cycle %d: granted idle requester %d", cycle, g)
			}
		}
	}
	// Requester 0 is always ready, so it must never starve; sparse
	// requesters must still win a share when they are ready alongside it.
	if grants[0] == 0 {
		t.Fatal("always-ready requester starved")
	}
	for i := 1; i < n; i++ {
		if grants[i] == 0 {
			t.Fatalf("sparse requester %d starved entirely: grants %v", i, grants)
		}
	}
	// The rotating pointer must prevent requester 0 from monopolizing
	// cycles where others are ready: on multiples of 12 all four are ready,
	// and round-robin hands those around — requester 0's share stays well
	// below the all-to-one extreme.
	total := 0
	for _, g := range grants {
		total += g
	}
	if grants[0] == total {
		t.Fatalf("requester 0 monopolized all %d grants", total)
	}
}

// TestRoundRobinRotationUnderContention verifies that with all requesters
// always ready, 4k grants split exactly k/k/k/k — the strict fairness bound.
func TestRoundRobinRotationUnderContention(t *testing.T) {
	const n, rounds = 4, 25
	rr := NewRoundRobin(n)
	grants := make([]int, n)
	for k := 0; k < n*rounds; k++ {
		g := rr.Pick(func(int) bool { return true })
		grants[g]++
	}
	for i, g := range grants {
		if g != rounds {
			t.Fatalf("requester %d got %d grants, want %d: %v", i, g, rounds, grants)
		}
	}
}

// TestRoundRobinPointerAdvancesPastGrant verifies the priority pointer moves
// past the granted index, so a newly ready lower-priority requester is not
// skipped on the next pick.
func TestRoundRobinPointerAdvancesPastGrant(t *testing.T) {
	rr := NewRoundRobin(3)
	if g := rr.Pick(func(i int) bool { return i == 0 }); g != 0 {
		t.Fatalf("first pick = %d", g)
	}
	// 0 and 1 both ready: pointer sits at 1, so 1 must win.
	if g := rr.Pick(func(i int) bool { return i == 0 || i == 1 }); g != 1 {
		t.Fatalf("second pick = %d, want 1 (pointer failed to advance)", g)
	}
	// 0 and 2 ready: pointer at 2, so 2 wins before wrapping to 0.
	if g := rr.Pick(func(i int) bool { return i == 0 || i == 2 }); g != 2 {
		t.Fatalf("third pick = %d, want 2", g)
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
// steady-state simulation hot path: queue and delay traffic must not
// allocate per operation. The machine's jump loop has its own check
// (machine.TestJumpLoopAllocationFree).
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
}

package sim

import "testing"

// checkCalendar fails unless c holds exactly the items of ref at their
// cycles, each entry's slot is recorded, and the heap is ordered.
func checkCalendar(t *testing.T, c *Calendar, ref map[int]uint64, step int) {
	t.Helper()
	if len(c.heap) != len(ref) {
		t.Fatalf("step %d: %d filed, reference %d", step, len(c.heap), len(ref))
	}
	for i := range c.at {
		want, wok := ref[i]
		if due, ok := c.Due(i); ok != wok || ok && due != want {
			t.Fatalf("step %d item %d: filed %v at %d, reference %v at %d", step, i, ok, due, wok, want)
		}
	}
	for k, e := range c.heap {
		if int(c.at[e.item]) != k {
			t.Fatalf("step %d: item %d sits at slot %d, recorded at %d", step, e.item, k, c.at[e.item])
		}
		if k > 0 && c.heap[(k-1)/2].due > e.due {
			t.Fatalf("step %d: heap out of order at slot %d", step, k)
		}
	}
	i, due := c.Next()
	want := Never
	for _, d := range ref {
		want = min(want, d)
	}
	if due != want || len(ref) == 0 && i != -1 || len(ref) > 0 && ref[i] != due {
		t.Fatalf("step %d: Next = (%d, %d), want an item at %d", step, i, due, want)
	}
}

// TestCalendarMatchesReference drives a calendar and a map through the same
// pseudo-random sets (inserts, moves earlier and later, re-files at the same
// cycle), removals of filed and unfiled items, pops of the earliest entry
// and clears, and checks every item, the heap order and Next after each
// operation.
func TestCalendarMatchesReference(t *testing.T) {
	const n = 37
	c := NewCalendar(n)
	ref := map[int]uint64{}
	rng := uint64(88172645463325252)
	next := func(k int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(k))
	}
	for step := 0; step < 20000; step++ {
		i := next(n)
		switch op := next(20); {
		case op < 12:
			due := uint64(next(50))
			c.Set(i, due)
			ref[i] = due
		case op < 17:
			c.Remove(i)
			delete(ref, i)
		case op < 19:
			if j, due := c.Next(); due != Never {
				c.Remove(j)
				delete(ref, j)
			}
		default:
			if next(10) == 0 {
				c.Clear()
				clear(ref)
			}
		}
		checkCalendar(t, &c, ref, step)
	}
}

// TestCalendarDoesNotAllocate: filing, moving and removing items allocates
// nothing once the calendar exists.
func TestCalendarDoesNotAllocate(t *testing.T) {
	c := NewCalendar(64)
	k := uint64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			k = k*6364136223846793005 + 1442695040888963407
			c.Set(i, k>>40)
		}
		for i := 0; i < 64; i += 3 {
			c.Remove(i)
		}
		c.Clear()
	}); allocs != 0 {
		t.Fatalf("calendar allocates %.1f times per run", allocs)
	}
}

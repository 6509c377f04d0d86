package sim

// Calendar files items 0..n-1 by the cycle at which each is next due: an
// indexed min-heap on that cycle. An item has at most one entry, which Set
// moves when its cycle changes, so no stale entry is ever left behind to
// skip. A calendar never allocates after NewCalendar.
type Calendar struct {
	heap []calEntry
	at   []int32 // per item: its slot in heap, -1 when not filed
}

// calEntry is one filed item. The cycle sits beside the item so that a sift
// compares neighbouring entries without reading the owner's state.
type calEntry struct {
	due  uint64
	item int32
}

// NewCalendar returns an empty calendar over n items.
func NewCalendar(n int) Calendar {
	c := Calendar{heap: make([]calEntry, 0, n), at: make([]int32, n)}
	for i := range c.at {
		c.at[i] = -1
	}
	return c
}

// Due returns the cycle item i is filed at, and whether it is filed.
func (c *Calendar) Due(i int) (due uint64, ok bool) {
	if k := c.at[i]; k >= 0 {
		return c.heap[k].due, true
	}
	return Never, false
}

// Next returns the item filed at the earliest cycle and that cycle, or
// (-1, Never) when nothing is filed.
func (c *Calendar) Next() (i int, due uint64) {
	if len(c.heap) == 0 {
		return -1, Never
	}
	return int(c.heap[0].item), c.heap[0].due
}

// Set files item i at cycle due, moving it if it is filed already.
func (c *Calendar) Set(i int, due uint64) {
	k := int(c.at[i])
	if k < 0 {
		k = len(c.heap)
		c.heap = append(c.heap, calEntry{due: due, item: int32(i)})
		c.at[i] = int32(k)
		c.up(k)
		return
	}
	old := c.heap[k].due
	c.heap[k].due = due
	if due < old {
		c.up(k)
	} else {
		c.down(k)
	}
}

// Remove takes item i out of the calendar, if it is filed.
func (c *Calendar) Remove(i int) {
	k := int(c.at[i])
	if k < 0 {
		return
	}
	c.at[i] = -1
	last := len(c.heap) - 1
	if k != last {
		c.heap[k] = c.heap[last]
		c.at[c.heap[k].item] = int32(k)
	}
	c.heap = c.heap[:last]
	if k != last {
		c.down(k)
		c.up(k)
	}
}

// Clear takes every item out.
func (c *Calendar) Clear() {
	for _, e := range c.heap {
		c.at[e.item] = -1
	}
	c.heap = c.heap[:0]
}

func (c *Calendar) up(k int) {
	h := c.heap
	for k > 0 {
		p := (k - 1) / 2
		if h[p].due <= h[k].due {
			return
		}
		c.swap(k, p)
		k = p
	}
}

func (c *Calendar) down(k int) {
	h := c.heap
	for {
		l := 2*k + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].due < h[l].due {
			m = r
		}
		if h[k].due <= h[m].due {
			return
		}
		c.swap(k, m)
		k = m
	}
}

func (c *Calendar) swap(a, b int) {
	h := c.heap
	h[a], h[b] = h[b], h[a]
	c.at[h[a].item] = int32(a)
	c.at[h[b].item] = int32(b)
}

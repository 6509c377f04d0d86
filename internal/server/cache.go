package server

import (
	"container/list"
	"fmt"
	"runtime/debug"
	"sync"

	"scatteradd/internal/exp"
	"scatteradd/internal/stats"
)

// resultCache is the service-layer combining stage: an in-flight
// singleflight table plus a bounded LRU of completed tables, both keyed by
// Request.CacheKey (figure + canonical options fingerprint). Concurrent
// identical requests merge onto one simulation the way the paper's combining
// store merges scatter-adds to one address — the leader computes, followers
// wait on its done channel and receive the same Table, and a later repeat is
// served from the LRU without simulating at all.
//
// Locking: mu guards the maps, the LRU list, and the cache's counters; the
// compute itself always runs outside the lock. Reading the counters from
// another goroutine must hold mu too (Server.Snapshot does).
type resultCache struct {
	mu       sync.Mutex
	max      int        // LRU capacity in entries; 0 disables the LRU (coalescing stays on)
	ll       *list.List // front = most recently used
	byKey    map[string]*list.Element
	inflight map[string]*inflightCall
	st       cacheStats
}

// cacheStats counts the cache's outcomes.
type cacheStats struct {
	Hits       uint64
	Misses     uint64
	Coalesced  uint64
	Evictions  uint64
	EntriesMax uint64 // high-water mark of cached tables
}

// cacheMetrics is the snapshot descriptor of the cache group.
var cacheMetrics = []stats.Metric[resultCache]{
	stats.Count("hits", func(c *resultCache) uint64 { return c.st.Hits }),
	stats.Count("misses", func(c *resultCache) uint64 { return c.st.Misses }),
	stats.Count("coalesced", func(c *resultCache) uint64 { return c.st.Coalesced }),
	stats.Count("evictions", func(c *resultCache) uint64 { return c.st.Evictions }),
	stats.HighWater("entries", func(c *resultCache) uint64 { return c.st.EntriesMax }),
}

// cacheEntry is one completed table in the LRU.
type cacheEntry struct {
	key   string
	table exp.Table
}

// inflightCall is one in-progress computation; followers block on done.
type inflightCall struct {
	done  chan struct{}
	table exp.Table
	err   error
}

// newResultCache builds a cache of at most max tables.
func newResultCache(max int) *resultCache {
	if max < 0 {
		max = 0
	}
	return &resultCache{
		max:      max,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		inflight: make(map[string]*inflightCall),
	}
}

// Cache outcome labels (the X-Cache response header).
const (
	CacheHit       = "hit"       // served from the LRU, nothing simulated
	CacheMiss      = "miss"      // this request ran the simulation
	CacheCoalesced = "coalesced" // merged onto a simulation already in flight
)

// Do returns the table for key, computing it at most once across concurrent
// callers: an LRU hit returns immediately, a key already in flight blocks
// until the leader finishes and shares its result, and otherwise the caller
// becomes the leader and runs compute. A panic inside compute (exp runners
// panic on internal errors) is captured and returned as an error to every
// waiter — one poisoned figure request must not take the daemon down.
func (c *resultCache) Do(key string, compute func() exp.Table) (exp.Table, string, error) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		t := el.Value.(*cacheEntry).table
		c.st.Hits++
		c.mu.Unlock()
		return t, CacheHit, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.st.Coalesced++
		c.mu.Unlock()
		<-call.done
		return call.table, CacheCoalesced, call.err
	}
	call := &inflightCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.st.Misses++
	c.mu.Unlock()

	call.table, call.err = computeSafe(compute)

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.addLocked(key, call.table)
	}
	c.mu.Unlock()
	close(call.done)
	return call.table, CacheMiss, call.err
}

// computeSafe runs compute, converting a panic into an error with the
// worker's stack attached.
func computeSafe(compute func() exp.Table) (t exp.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("simulation panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return compute(), nil
}

// addLocked inserts a completed table at the LRU front, evicting from the
// back past capacity. Caller holds mu.
func (c *resultCache) addLocked(key string, t exp.Table) {
	if c.max == 0 {
		return
	}
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).table = t
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, table: t})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
		c.st.Evictions++
	}
	c.st.EntriesMax = max(c.st.EntriesMax, uint64(c.ll.Len()))
}

// Len returns the number of cached tables.
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// dump snapshots the cached entries oldest-first (so replaying them through
// addLocked in order reproduces the same LRU order). Used by the persisted
// index (persist.go).
func (c *resultCache) dump() []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*cacheEntry))
	}
	return out
}

// seed inserts entries as if they had just been computed (front of the LRU,
// evicting past capacity). Used to warm the cache from a persisted index.
func (c *resultCache) seed(entries []cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range entries {
		c.addLocked(e.key, e.table)
	}
}

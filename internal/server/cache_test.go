package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scatteradd/internal/exp"
)

// testCache builds a cache of max entries.
func testCache(max int) *resultCache {
	return newResultCache(max)
}

// tableFor fabricates a distinguishable table.
func tableFor(label string) exp.Table {
	return exp.Table{Title: label, Header: []string{"k"}, Rows: [][]string{{label}}}
}

// validated turns a spec into a Request, failing the test on error.
func validated(t *testing.T, sp Spec) Request {
	t.Helper()
	req, err := sp.Validate(Limits{})
	if err != nil {
		t.Fatalf("Validate(%+v): %v", sp, err)
	}
	return req
}

// TestCacheIdenticalSpecsCoalesceToOneSimulation: the satellite's headline
// contract — two requests with identical specs run ONE simulation; the
// second is a counted cache hit with the same table.
func TestCacheIdenticalSpecsCoalesceToOneSimulation(t *testing.T) {
	c := testCache(8)
	var computes atomic.Int64
	compute := func() exp.Table {
		computes.Add(1)
		return tableFor("once")
	}
	key := validated(t, Spec{Figure: "fig6", Scale: 32}).CacheKey()
	t1, st1, err := c.Do(key, compute)
	if err != nil || st1 != CacheMiss {
		t.Fatalf("first Do: status %q, err %v", st1, err)
	}
	t2, st2, err := c.Do(key, compute)
	if err != nil || st2 != CacheHit {
		t.Fatalf("second Do: status %q, err %v", st2, err)
	}
	if computes.Load() != 1 {
		t.Fatalf("%d simulations for identical specs (want 1)", computes.Load())
	}
	if t1.String() != t2.String() {
		t.Fatal("cache hit returned different table")
	}
	if c.st.Hits != 1 || c.st.Misses != 1 {
		t.Fatalf("hit/miss counters %d/%d (want 1/1)", c.st.Hits, c.st.Misses)
	}
}

// TestCacheKeySemantics: differing fault seeds (and any output-affecting
// option) miss; format — which never changes rendered bytes — hits the same
// entry.
func TestCacheKeySemantics(t *testing.T) {
	base := Spec{Figure: "fig13", Scale: 512, Faults: 1}
	k := validated(t, base).CacheKey()

	differ := base
	differ.FaultSeed = 0xFACE
	if validated(t, differ).CacheKey() == k {
		t.Fatal("differing fault seed produced the same cache key")
	}
	scaled := base
	scaled.Faults = 0.5
	if validated(t, scaled).CacheKey() == k {
		t.Fatal("differing fault scale produced the same cache key")
	}
	otherFig := base
	otherFig.Figure = "fig6"
	if validated(t, otherFig).CacheKey() == k {
		t.Fatal("differing figure produced the same cache key")
	}

	formatted := base
	formatted.Format = "csv"
	if validated(t, formatted).CacheKey() != k {
		t.Fatal("format changed the cache key (rendering happens after the cache)")
	}
}

// TestCacheLRUEvictionBoundsMemory: capacity is entry-exact; the least
// recently used entry is the one evicted, and the eviction counter tallies.
func TestCacheLRUEvictionBoundsMemory(t *testing.T) {
	c := testCache(2)
	mk := func(i int) string { return fmt.Sprintf("key-%d", i) }
	for i := 0; i < 3; i++ {
		c.Do(mk(i), func() exp.Table { return tableFor(mk(i)) })
	}
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries (capacity 2)", c.Len())
	}
	if c.st.Evictions != 1 {
		t.Fatalf("evictions counter %d (want 1)", c.st.Evictions)
	}
	// key-0 was the oldest: it must have been evicted; key-1 and key-2 hit.
	if _, st, _ := c.Do(mk(1), func() exp.Table { return tableFor("x") }); st != CacheHit {
		t.Fatalf("key-1 status %q (want hit)", st)
	}
	if _, st, _ := c.Do(mk(2), func() exp.Table { return tableFor("x") }); st != CacheHit {
		t.Fatalf("key-2 status %q (want hit)", st)
	}
	var recomputed bool
	if _, st, _ := c.Do(mk(0), func() exp.Table { recomputed = true; return tableFor("again") }); st != CacheMiss || !recomputed {
		t.Fatalf("key-0 status %q recomputed=%v (want evicted -> miss)", st, recomputed)
	}
	// Touching key-2 then inserting must evict key-1, not key-2.
	c.Do(mk(2), func() exp.Table { return tableFor("x") })
	c.Do(mk(9), func() exp.Table { return tableFor("new") })
	if _, st, _ := c.Do(mk(2), func() exp.Table { return tableFor("x") }); st != CacheHit {
		t.Fatal("recently used entry was evicted instead of the LRU one")
	}
}

// TestCacheConcurrentIdenticalRequests: N racing identical requests produce
// exactly one simulation; every caller — leader, coalesced, or later hit —
// receives the same bytes. Run under -race in CI.
func TestCacheConcurrentIdenticalRequests(t *testing.T) {
	c := testCache(8)
	var computes atomic.Int64
	gate := make(chan struct{})
	compute := func() exp.Table {
		<-gate // hold every early arrival in the coalescing window
		computes.Add(1)
		return tableFor("shared")
	}
	const n = 16
	req := validated(t, Spec{Figure: "fig6", Format: "csv"})
	var wg sync.WaitGroup
	bodies := make([]string, n)
	statuses := make([]string, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			tab, st, err := c.Do("key", compute)
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			body, _ := req.Render(tab)
			bodies[i] = string(body)
			statuses[i] = st
		}(i)
	}
	close(gate)
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("%d simulations for 16 concurrent identical requests (want 1)", computes.Load())
	}
	var coalesced int
	for i := 0; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Fatalf("request %d received different bytes (%q vs %q)", i, bodies[i], bodies[0])
		}
		// Any caller may be the leader, so every status counts.
		if statuses[i] == CacheCoalesced {
			coalesced++
		}
	}
	if got := c.st.Coalesced; int(got) != coalesced {
		t.Fatalf("coalesced counter %d but %d callers reported coalesced", got, coalesced)
	}
}

// TestCachePanicBecomesError: a panicking simulation poisons neither the
// cache nor the daemon — the leader and every coalesced waiter get an error,
// nothing is cached, and a retry recomputes.
func TestCachePanicBecomesError(t *testing.T) {
	c := testCache(8)
	_, _, err := c.Do("bad", func() exp.Table { panic("exp: cell lookup failed") })
	if err == nil {
		t.Fatal("panic did not surface as an error")
	}
	if c.Len() != 0 {
		t.Fatal("failed computation was cached")
	}
	tab, st, err := c.Do("bad", func() exp.Table { return tableFor("recovered") })
	if err != nil || st != CacheMiss || tab.Title != "recovered" {
		t.Fatalf("retry after panic: %q/%v (want fresh miss)", st, err)
	}
}

// TestCacheDisabledStillCoalesces: capacity 0 turns the LRU off but keeps
// in-flight dedup — sequential identical requests recompute, concurrent ones
// still merge.
func TestCacheDisabledStillCoalesces(t *testing.T) {
	c := testCache(0)
	var computes atomic.Int64
	compute := func() exp.Table { computes.Add(1); return tableFor("x") }
	c.Do("k", compute)
	_, st, _ := c.Do("k", compute)
	if st != CacheMiss || computes.Load() != 2 {
		t.Fatalf("disabled cache served status %q after %d computes (want miss, 2)", st, computes.Load())
	}

	// In-flight dedup: hold a leader inside its computation, wait until
	// three followers have registered as coalesced, then release — exactly
	// one simulation runs.
	started := make(chan struct{})
	release := make(chan struct{})
	var k2computes atomic.Int64
	go c.Do("k2", func() exp.Table {
		close(started)
		<-release
		k2computes.Add(1)
		return tableFor("y")
	})
	<-started
	var wg sync.WaitGroup
	wg.Add(3)
	for i := 0; i < 3; i++ {
		go func() {
			defer wg.Done()
			if _, st, _ := c.Do("k2", func() exp.Table { k2computes.Add(1); return tableFor("y") }); st != CacheCoalesced {
				t.Errorf("follower status %q (want coalesced)", st)
			}
		}()
	}
	waitCoalesced(t, c, 3)
	close(release)
	wg.Wait()
	if k2computes.Load() != 1 {
		t.Fatalf("%d simulations with the LRU disabled (want 1: coalescing stays on)", k2computes.Load())
	}
}

// waitCoalesced blocks until n callers have coalesced onto in-flight work.
func waitCoalesced(t *testing.T, c *resultCache, n uint64) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		c.mu.Lock()
		got := c.st.Coalesced
		c.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("followers never coalesced")
}

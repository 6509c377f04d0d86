package stats

import (
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}

	var g Gauge
	g.Set(3)
	g.Add(4)
	g.Add(-6)
	if g.Value() != 1 {
		t.Fatalf("gauge value = %d, want 1", g.Value())
	}
	if g.Max() != 7 {
		t.Fatalf("gauge max = %d, want 7", g.Max())
	}

	h := NewGroup("x").Histogram("occ", 4)
	for _, v := range []int{0, 1, 1, 3, 9, -2} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("hist count = %d, want 6", h.Count())
	}
	if h.Sum() != 0+1+1+3+9+0 {
		t.Fatalf("hist sum = %d, want 14", h.Sum())
	}
	// 9 overflows into the last bucket; -2 clamps to bucket 0.
	want := []uint64{2, 2, 0, 2}
	for i, w := range want {
		if h.Bucket(i) != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.Bucket(i), w)
		}
	}
	if h.Buckets() != 4 {
		t.Fatalf("buckets = %d, want 4", h.Buckets())
	}
	if m := h.Mean(); m < 2.3 || m > 2.4 {
		t.Fatalf("mean = %v, want 14/6", m)
	}
}

func TestGroupIdempotentAndKindConflicts(t *testing.T) {
	g := NewGroup("u")
	if g.Counter("a") != g.Counter("a") {
		t.Fatal("Counter not idempotent")
	}
	if g.Gauge("b") != g.Gauge("b") {
		t.Fatal("Gauge not idempotent")
	}
	if g.Histogram("c", 3) != g.Histogram("c", 3) {
		t.Fatal("Histogram not idempotent")
	}
	mustPanic(t, "counter-as-gauge", func() { g.Gauge("a") })
	mustPanic(t, "gauge-as-histogram", func() { g.Histogram("b", 2) })
	mustPanic(t, "histogram-as-counter", func() { g.Counter("c") })
	mustPanic(t, "zero-bucket histogram", func() { g.Histogram("d", 0) })
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	zb := r.Group("zbank")
	zb.Counter("hits").Add(7)
	ab := r.Group("abank")
	ab.Counter("miss").Add(2)
	ab.Gauge("depth").Set(5)
	ab.Gauge("depth").Set(1)
	h := ab.Histogram("occ", 2)
	h.Observe(1)

	s := r.Snapshot()
	var keys []string
	for _, e := range s.Entries {
		keys = append(keys, e.Key)
	}
	want := []string{
		"abank/depth", "abank/miss",
		"abank/occ.b0", "abank/occ.b1", "abank/occ.count", "abank/occ.sum",
		"zbank/hits",
	}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	if v, ok := s.Get("abank/depth"); !ok || v != 5 {
		t.Fatalf("gauge snapshot = %d,%v, want high-water 5", v, ok)
	}
	if v, ok := s.Get("zbank/hits"); !ok || v != 7 {
		t.Fatalf("counter snapshot = %d,%v", v, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get on missing key reported ok")
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
}

func TestRegistryAdopt(t *testing.T) {
	r := NewRegistry()
	g := NewGroup("saunit")
	g.Counter("fu_ops").Add(3)
	r.Adopt("saunit[2]", g)
	if g.Name() != "saunit[2]" {
		t.Fatalf("adopted name = %q", g.Name())
	}
	if v, ok := r.Snapshot().Get("saunit[2]/fu_ops"); !ok || v != 3 {
		t.Fatalf("adopted metric = %d,%v", v, ok)
	}
	mustPanic(t, "duplicate adopt", func() { r.Adopt("saunit[2]", NewGroup("x")) })
	if r.Group("saunit[2]") != g {
		t.Fatal("Group does not return the adopted group")
	}
}

func TestSnapshotSub(t *testing.T) {
	r := NewRegistry()
	c := r.Group("g").Counter("n")
	ga := r.Group("g").Gauge("lvl")
	c.Add(10)
	ga.Set(4)
	before := r.Snapshot()
	c.Add(5)
	ga.Set(9)
	after := r.Snapshot()

	d := after.Sub(before)
	if v, _ := d.Get("g/n"); v != 5 {
		t.Fatalf("counter delta = %d, want 5", v)
	}
	// Gauges keep the newer (cumulative high-water) value.
	if v, _ := d.Get("g/lvl"); v != 9 {
		t.Fatalf("gauge after sub = %d, want 9", v)
	}
	// Keys missing from prev subtract nothing.
	r2 := NewRegistry()
	r2.Group("g").Counter("fresh").Add(3)
	if v, _ := r2.Snapshot().Sub(before).Get("g/fresh"); v != 3 {
		t.Fatalf("fresh key delta = %d, want 3", v)
	}
}

func TestSnapshotMerge(t *testing.T) {
	mk := func(fill func(*Registry)) Snapshot {
		r := NewRegistry()
		fill(r)
		return r.Snapshot()
	}
	a := mk(func(r *Registry) {
		r.Group("a").Counter("n").Add(2)
		r.Group("a").Gauge("g").Set(3)
		r.Group("only_a").Counter("x").Add(1)
	})
	b := mk(func(r *Registry) {
		r.Group("a").Counter("n").Add(5)
		r.Group("a").Gauge("g").Set(2)
		r.Group("only_b").Counter("y").Add(4)
	})
	m := a.Merge(b)
	checks := map[string]uint64{"a/n": 7, "a/g": 3, "only_a/x": 1, "only_b/y": 4}
	for k, want := range checks {
		if v, ok := m.Get(k); !ok || v != want {
			t.Fatalf("merge[%s] = %d,%v, want %d", k, v, ok, want)
		}
	}
	// MergeAll is left-to-right and handles the empty case.
	if MergeAll(nil).Len() != 0 {
		t.Fatal("MergeAll(nil) not empty")
	}
	all := MergeAll([]Snapshot{a, b, a})
	if v, _ := all.Get("a/n"); v != 9 {
		t.Fatalf("MergeAll counter = %d, want 9", v)
	}
}

func TestSnapshotCollapse(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		g := NewGroup("cache")
		g.Counter("conflicts").Add(uint64(i + 1))
		g.Gauge("depth").Set(int64(i))
		r.Adopt(groupName("cache", i), g)
	}
	r.Group("dram").Counter("row_hits").Add(8)
	c := r.Snapshot().Collapse()
	if v, _ := c.Get("cache/conflicts"); v != 1+2+3 {
		t.Fatalf("collapsed counter = %d, want 6", v)
	}
	if v, _ := c.Get("cache/depth"); v != 2 {
		t.Fatalf("collapsed gauge = %d, want max 2", v)
	}
	if v, _ := c.Get("dram/row_hits"); v != 8 {
		t.Fatalf("uninstanced key = %d, want 8", v)
	}
}

func TestSnapshotFormat(t *testing.T) {
	r := NewRegistry()
	r.Group("g").Counter("long_counter_name").Add(12)
	r.Group("g").Gauge("lvl").Set(3)
	out := r.Snapshot().Format("  ")
	if !strings.Contains(out, "  g/long_counter_name  12\n") {
		t.Fatalf("missing counter line in:\n%s", out)
	}
	if !strings.Contains(out, "g/lvl") || !strings.Contains(out, "(max)") {
		t.Fatalf("missing gauge annotation in:\n%s", out)
	}
}

func TestNegativeGaugeSnapshotClamps(t *testing.T) {
	r := NewRegistry()
	r.Group("g").Gauge("lvl").Add(-5)
	if v, _ := r.Snapshot().Get("g/lvl"); v != 0 {
		t.Fatalf("negative gauge snapshot = %d, want 0", v)
	}
}

func groupName(base string, i int) string {
	return base + "[" + string(rune('0'+i)) + "]"
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestObserveNMatchesObserve: ObserveN(v, n) leaves a histogram exactly as n
// calls of Observe(v) do — buckets, count and sum — including negative
// values clamped to bucket 0, overflow clamped to the last bucket with its
// true value summed, and n = 0 recording nothing. Catch-up after an idle
// stretch relies on this equivalence.
func TestObserveNMatchesObserve(t *testing.T) {
	for _, v := range []int{-3, 0, 2, 3, 4, 17} {
		for _, n := range []uint64{0, 1, 5} {
			bulk := NewGroup("x").Histogram("occ", 4)
			loop := NewGroup("x").Histogram("occ", 4)
			bulk.Observe(1) // a prior sample, so n = 0 must leave it alone
			loop.Observe(1)
			bulk.ObserveN(v, n)
			for i := uint64(0); i < n; i++ {
				loop.Observe(v)
			}
			if bulk.Count() != loop.Count() || bulk.Sum() != loop.Sum() {
				t.Fatalf("v=%d n=%d: count/sum %d/%d, want %d/%d", v, n, bulk.Count(), bulk.Sum(), loop.Count(), loop.Sum())
			}
			for b := 0; b < bulk.Buckets(); b++ {
				if bulk.Bucket(b) != loop.Bucket(b) {
					t.Fatalf("v=%d n=%d: bucket %d = %d, want %d", v, n, b, bulk.Bucket(b), loop.Bucket(b))
				}
			}
		}
	}
}

// TestLevelMatchesPerCycleSamples: a Level moved only at its change points
// and flushed at the end leaves its histogram (or busy counter) exactly as
// one Observe per cycle of the same level sequence does, including two
// changes at one cycle, a change back to the held level, and a flush in the
// middle of a stretch.
func TestLevelMatchesPerCycleSamples(t *testing.T) {
	levels := []int{0, 0, 3, 3, 3, 1, 0, 0, 4, 4, 2, 2, 2, 2, 0, 5}
	g := NewGroup("x")
	perCycle := g.Histogram("per_cycle", 5)
	var perCycleBusy Counter
	occ := OccupancyLevel(g.Histogram("changes", 5))
	var busyCount Counter
	busy := BusyLevel(&busyCount)
	for now, v := range levels {
		perCycle.Observe(v)
		if v > 0 {
			perCycleBusy.Inc()
		}
		at := uint64(now)
		occ.Set(at, v+1) // a transient level that holds for no cycle
		occ.Set(at, v)
		busy.Set(at, v)
		if now == 9 {
			occ.Flush(at)
		}
	}
	end := uint64(len(levels))
	occ.Flush(end)
	busy.Flush(end)
	busy.Flush(end) // a second flush at the same cycle records nothing
	h := occ.h
	if h.Count() != perCycle.Count() || h.Sum() != perCycle.Sum() {
		t.Fatalf("count/sum %d/%d, want %d/%d", h.Count(), h.Sum(), perCycle.Count(), perCycle.Sum())
	}
	for b := 0; b < h.Buckets(); b++ {
		if h.Bucket(b) != perCycle.Bucket(b) {
			t.Fatalf("bucket %d = %d, want %d", b, h.Bucket(b), perCycle.Bucket(b))
		}
	}
	if busyCount.Value() != perCycleBusy.Value() {
		t.Fatalf("busy cycles %d, want %d", busyCount.Value(), perCycleBusy.Value())
	}
}

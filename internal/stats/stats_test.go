package stats

import (
	"reflect"
	"strings"
	"testing"
)

// probe is a component with one counter, one high-water mark and one
// occupancy histogram, counted the way the simulator's components count.
type probe struct {
	n, depthMax uint64
	occ         Histogram
}

// probeMetrics is probe's snapshot descriptor.
var probeMetrics = []Metric[probe]{
	Count("n", func(p *probe) uint64 { return p.n }),
	HighWater("depth", func(p *probe) uint64 { return p.depthMax }),
	Hist("occ", func(p *probe) *Histogram { return &p.occ }),
}

func newProbe(n, depthMax uint64) *probe {
	return &probe{n: n, depthMax: depthMax, occ: NewHistogram(2)}
}

// snapshotOf builds a snapshot of probes appended in the given group order.
func snapshotOf(groups []string, probes ...*probe) Snapshot {
	var es []Entry
	for i, g := range groups {
		es = Append(es, g, probeMetrics, probes[i])
	}
	return NewSnapshot(es)
}

func TestCounterGaugeHistogram(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []int{0, 1, 1, 3, 9, -2} {
		h.Observe(v)
	}
	// 9 overflows into the last bucket (its true value summed); -2 clamps
	// to bucket 0.
	want := Histogram{buckets: []uint64{2, 2, 0, 2}, count: 6, sum: 0 + 1 + 1 + 3 + 9 + 0}
	if !reflect.DeepEqual(h, want) {
		t.Fatalf("histogram = %+v, want %+v", h, want)
	}
	mustPanic(t, "zero-bucket histogram", func() { NewHistogram(0) })

	// A descriptor row reads a counter as a counter and a high-water mark
	// as a gauge.
	s := snapshotOf([]string{"g"}, newProbe(5, 7))
	for key, kind := range map[string]MetricKind{"g/n": KindCounter, "g/depth": KindGauge, "g/occ.b0": KindCounter} {
		i := indexOf(s, key)
		if i < 0 || s.Entries[i].Kind != kind {
			t.Fatalf("%s: entry %d, want kind %d in %+v", key, i, kind, s.Entries)
		}
	}
}

// indexOf returns the position of key in s, or -1.
func indexOf(s Snapshot, key string) int {
	for i, e := range s.Entries {
		if e.Key == key {
			return i
		}
	}
	return -1
}

func TestRegistrySnapshotSorted(t *testing.T) {
	zb, ab := newProbe(7, 0), newProbe(2, 5)
	ab.occ.Observe(1)
	s := snapshotOf([]string{"zbank", "abank"}, zb, ab)
	var keys []string
	for _, e := range s.Entries {
		keys = append(keys, e.Key)
	}
	want := []string{
		"abank/depth", "abank/n",
		"abank/occ.b0", "abank/occ.b1", "abank/occ.count", "abank/occ.sum",
		"zbank/depth", "zbank/n",
		"zbank/occ.b0", "zbank/occ.b1", "zbank/occ.count", "zbank/occ.sum",
	}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	if v, ok := s.Get("abank/depth"); !ok || v != 5 {
		t.Fatalf("gauge snapshot = %d,%v, want high-water 5", v, ok)
	}
	if v, ok := s.Get("abank/occ.b1"); !ok || v != 1 {
		t.Fatalf("bucket snapshot = %d,%v, want 1", v, ok)
	}
	if v, ok := s.Get("zbank/n"); !ok || v != 7 {
		t.Fatalf("counter snapshot = %d,%v", v, ok)
	}
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get on missing key reported ok")
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := snapshotOf([]string{"a", "only_a"}, newProbe(2, 3), newProbe(1, 0))
	b := snapshotOf([]string{"a", "only_b"}, newProbe(5, 2), newProbe(4, 0))
	m := a.Merge(b)
	checks := map[string]uint64{"a/n": 7, "a/depth": 3, "only_a/n": 1, "only_b/n": 4}
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
	var groups []string
	var probes []*probe
	for i := 0; i < 3; i++ {
		groups = append(groups, groupName("cache", i))
		probes = append(probes, newProbe(uint64(i+1), uint64(i)))
	}
	groups = append(groups, "dram")
	probes = append(probes, newProbe(8, 0))
	c := snapshotOf(groups, probes...).Collapse()
	if v, _ := c.Get("cache/n"); v != 1+2+3 {
		t.Fatalf("collapsed counter = %d, want 6", v)
	}
	if v, _ := c.Get("cache/depth"); v != 2 {
		t.Fatalf("collapsed gauge = %d, want max 2", v)
	}
	if v, _ := c.Get("dram/n"); v != 8 {
		t.Fatalf("uninstanced key = %d, want 8", v)
	}
}

func TestSnapshotFormat(t *testing.T) {
	out := snapshotOf([]string{"g"}, newProbe(12, 3)).Format("  ")
	if !strings.Contains(out, "  g/n          12\n") {
		t.Fatalf("missing counter line in:\n%s", out)
	}
	if !strings.Contains(out, "g/depth") || !strings.Contains(out, "(max)") {
		t.Fatalf("missing gauge annotation in:\n%s", out)
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
			bulk, loop := NewHistogram(4), NewHistogram(4)
			bulk.Observe(1) // a prior sample, so n = 0 must leave it alone
			loop.Observe(1)
			bulk.ObserveN(v, n)
			for i := uint64(0); i < n; i++ {
				loop.Observe(v)
			}
			if !reflect.DeepEqual(bulk, loop) {
				t.Fatalf("v=%d n=%d: ObserveN gives %+v, want %+v", v, n, bulk, loop)
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
	perCycle, changes := NewHistogram(5), NewHistogram(5)
	var perCycleBusy, busyCount uint64
	occ := OccupancyLevel(&changes)
	busy := BusyLevel(&busyCount)
	for now, v := range levels {
		perCycle.Observe(v)
		if v > 0 {
			perCycleBusy++
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
	if !reflect.DeepEqual(changes, perCycle) {
		t.Fatalf("counted at change points %+v, want %+v", changes, perCycle)
	}
	if busyCount != perCycleBusy {
		t.Fatalf("busy cycles %d, want %d", busyCount, perCycleBusy)
	}
}

package stats

import (
	"strconv"
	"testing"
)

// Counting is a plain field increment and cannot regress on its own; the
// primitives measured here are the ones with code of their own: a
// Histogram.Observe is two adds and a bounds check, a Level.Set a compare,
// and a snapshot the cold path. BenchmarkEngineTick in internal/machine
// guards the end-to-end cost.

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(16)
	for i := 0; i < b.N; i++ {
		h.Observe(i & 15)
	}
}

// BenchmarkHistogramLevelSet moves an occupancy level every cycle, the
// worst case of counting at change points.
func BenchmarkHistogramLevelSet(b *testing.B) {
	h := NewHistogram(16)
	l := OccupancyLevel(&h)
	for i := 0; i < b.N; i++ {
		l.Set(uint64(i), i&15)
	}
	l.Flush(uint64(b.N))
	if h.count != uint64(b.N) {
		b.Fatal("lost samples")
	}
}

// benchUnit is a component shaped like a scatter-add unit: eight counters
// and one occupancy histogram.
type benchUnit struct {
	c   [8]uint64
	occ Histogram
}

var benchMetrics = func() []Metric[benchUnit] {
	var d []Metric[benchUnit]
	for i := range 8 {
		d = append(d, Count("c"+strconv.Itoa(i), func(u *benchUnit) uint64 { return u.c[i] }))
	}
	return append(d, Hist("occ", func(u *benchUnit) *Histogram { return &u.occ }))
}()

// BenchmarkSnapshotAppend covers the cold path: the per-sample cost of a
// timeline over a machine-sized set of components (17 instances as in the
// Table 1 node), instance names formatted per snapshot.
func BenchmarkSnapshotAppend(b *testing.B) {
	units := make([]benchUnit, 17)
	for i := range units {
		units[i].occ = NewHistogram(9)
		units[i].c[i%8] = uint64(i)
		units[i].occ.Observe(i % 9)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var es []Entry
		for j := range units {
			es = Append(es, "unit["+strconv.Itoa(j)+"]", benchMetrics, &units[j])
		}
		if NewSnapshot(es).Len() == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

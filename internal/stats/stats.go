// Package stats is the simulator's hardware performance-counter layer:
// occupancy histograms and change-point levels for the components to count
// with, per-type descriptors that name their counters, and snapshots with
// diff, merge and collapse operations over the collected values.
//
// The paper's results are explained by memory-system microarchitecture
// events — stream-cache bank conflicts, combining-store occupancy, DRAM row
// locality, crossbar back-pressure (§4.2-§4.5) — and this package is how the
// simulator exposes them. A component counts each event once, as a plain
// uint64 field of its exported Stats struct; an occupancy histogram sits
// beside it in the component. One static descriptor per component type
// ([]Metric) names each snapshot key and reads its value, and the owner of
// the components (a machine, a multi-node system, the daemon) builds a
// Snapshot by appending every instance through its type's descriptor
// (Append), formatting instance names only then. Nothing is registered or
// allocated per counter at construction.
//
// Concurrency contract: a component's counters are confined to the single
// goroutine that drives its simulation. The parallel experiment runner gives
// every run its own components and merges the resulting Snapshots (plain
// values) at collection time, in input-index order, so reports stay
// race-free and byte-identical for any worker count.
//
// Overhead contract: counting is a field increment with no allocation and
// no indirection, cheap enough that it stays enabled unconditionally.
// "Disabling" stats (the CLI default) only skips Snapshot collection and
// rendering; the counting itself is always on and is guarded against
// regression by BenchmarkEngineTick in CI.
package stats

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// MetricKind determines how snapshot entries combine under Merge and Sub.
type MetricKind uint8

const (
	// KindCounter is a monotonically increasing event count: Merge sums,
	// Sub subtracts. Histogram buckets, counts, and sums are counters too.
	KindCounter MetricKind = iota
	// KindGauge is a high-water mark: Merge takes the maximum, Sub keeps
	// the newer value.
	KindGauge
)

// Histogram is a linear, value-indexed histogram: Observe(v) increments
// bucket v, with the last bucket absorbing overflow. It is sized for small
// occupancy domains (combining-store entries, MSHRs) where bucket == level.
// A component holds it by value beside its Stats.
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     uint64
}

// NewHistogram returns a histogram with the given bucket count (at least 1).
func NewHistogram(buckets int) Histogram {
	if buckets < 1 {
		panic(fmt.Sprintf("stats: histogram needs at least one bucket, got %d", buckets))
	}
	return Histogram{buckets: make([]uint64, buckets)}
}

// Observe records one sample. Negative values clamp to bucket 0; values at
// or beyond the bucket count clamp to the last bucket (sum still accrues the
// true value).
func (h *Histogram) Observe(v int) {
	i := v
	if i < 0 {
		i = 0
		v = 0
	} else if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i]++
	h.count++
	h.sum += uint64(v)
}

// ObserveN records n identical samples of v in one call. It is equivalent
// to calling Observe(v) n times; the simulation engine uses it to apply the
// per-cycle occupancy observations of a skipped idle stretch in bulk.
func (h *Histogram) ObserveN(v int, n uint64) {
	i := v
	if i < 0 {
		i = 0
		v = 0
	} else if i >= len(h.buckets) {
		i = len(h.buckets) - 1
	}
	h.buckets[i] += n
	h.count += n
	h.sum += uint64(v) * n
}

// Level is a quantity sampled once per cycle (an occupancy, or whether a
// pipeline is busy) that is counted at its change points instead: it keeps
// the current level and the cycle from which it has held, and hands each
// finished stretch to its histogram as one ObserveN, or, for a busy level,
// adds the stretch's cycles to its counter while the level is above zero.
// ObserveN is additive, so the result equals one sample per cycle exactly,
// provided the owner moves the level at the cycle the per-cycle sample would
// first see the new value and calls Flush before anything reads the
// instrument.
type Level struct {
	h     *Histogram
	busy  *uint64
	level int
	since uint64
}

// OccupancyLevel returns a level recorded into h, one sample per cycle.
func OccupancyLevel(h *Histogram) Level { return Level{h: h} }

// BusyLevel returns a level that adds to the counter c every cycle it is
// above zero.
func BusyLevel(c *uint64) Level { return Level{busy: c} }

// Set makes v the level from cycle at on, closing the stretch the previous
// level held.
func (l *Level) Set(at uint64, v int) {
	if v != l.level {
		l.Flush(at)
		l.level = v
	}
}

// Flush records the cycles from the open stretch's start up to at, and
// opens the next stretch at at.
func (l *Level) Flush(at uint64) {
	n := at - l.since
	l.since = at
	if l.h != nil {
		l.h.ObserveN(l.level, n)
	} else if l.level > 0 {
		*l.busy += n
	}
}

// Metric is one row of a component type's descriptor: the snapshot name of
// one counter, high-water mark or histogram, and how to read it from a
// component of type T. Build rows with Count, HighWater and Hist; a
// descriptor is a package-level []Metric[T] listing every key the type
// contributes to a snapshot.
type Metric[T any] struct {
	name string
	kind MetricKind
	val  func(*T) uint64
	hist func(*T) *Histogram
}

// Count returns a counter row read by val.
func Count[T any](name string, val func(*T) uint64) Metric[T] {
	return Metric[T]{name: name, kind: KindCounter, val: val}
}

// HighWater returns a gauge row (a high-water mark) read by val.
func HighWater[T any](name string, val func(*T) uint64) Metric[T] {
	return Metric[T]{name: name, kind: KindGauge, val: val}
}

// Hist returns a histogram row: a snapshot expands it into one counter per
// bucket ("name.b0" ...) plus "name.count" and "name.sum".
func Hist[T any](name string, h func(*T) *Histogram) Metric[T] {
	return Metric[T]{name: name, hist: h}
}

// Append appends the entries of component c, read through its type's
// descriptor desc, to es under the instance name group ("saunit[3]",
// "dram"), keyed "group/name". The caller builds the snapshot from the
// entries of every instance with NewSnapshot.
func Append[T any](es []Entry, group string, desc []Metric[T], c *T) []Entry {
	for _, m := range desc {
		key := group + "/" + m.name
		if m.hist == nil {
			es = append(es, Entry{Key: key, Kind: m.kind, Val: m.val(c)})
			continue
		}
		h := m.hist(c)
		for i, b := range h.buckets {
			es = append(es, Entry{Key: key + ".b" + strconv.Itoa(i), Kind: KindCounter, Val: b})
		}
		es = append(es, Entry{Key: key + ".count", Kind: KindCounter, Val: h.count},
			Entry{Key: key + ".sum", Kind: KindCounter, Val: h.sum})
	}
	return es
}

// Entry is one key/value pair of a snapshot. Histograms expand into bucket
// entries ("group/metric.b0" ...) plus ".count" and ".sum".
type Entry struct {
	Key  string
	Kind MetricKind
	Val  uint64
}

// Snapshot is an immutable, key-sorted copy of counter values.
type Snapshot struct {
	Entries []Entry
}

// NewSnapshot sorts the entries, which must have distinct keys, into a
// snapshot. It takes ownership of es.
func NewSnapshot(es []Entry) Snapshot {
	slices.SortFunc(es, func(a, b Entry) int { return strings.Compare(a.Key, b.Key) })
	return Snapshot{Entries: es}
}

// Get returns the value for key, and whether the key is present.
func (s Snapshot) Get(key string) (uint64, bool) {
	i := sort.Search(len(s.Entries), func(i int) bool { return s.Entries[i].Key >= key })
	if i < len(s.Entries) && s.Entries[i].Key == key {
		return s.Entries[i].Val, true
	}
	return 0, false
}

// Len returns the number of entries.
func (s Snapshot) Len() int { return len(s.Entries) }

// Sub returns s minus prev: counters subtract (a key missing from prev
// counts as zero); gauges keep s's value. Keys only in prev are dropped.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	out := make([]Entry, len(s.Entries))
	for i, e := range s.Entries {
		if e.Kind == KindCounter {
			if old, ok := prev.Get(e.Key); ok {
				e.Val -= old
			}
		}
		out[i] = e
	}
	return Snapshot{Entries: out}
}

// Merge returns the union of s and o: counters sum, gauges take the maximum.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := make([]Entry, 0, len(s.Entries)+len(o.Entries))
	i, j := 0, 0
	for i < len(s.Entries) && j < len(o.Entries) {
		a, b := s.Entries[i], o.Entries[j]
		switch {
		case a.Key < b.Key:
			out = append(out, a)
			i++
		case a.Key > b.Key:
			out = append(out, b)
			j++
		default:
			if a.Kind == KindGauge {
				if b.Val > a.Val {
					a.Val = b.Val
				}
			} else {
				a.Val += b.Val
			}
			out = append(out, a)
			i, j = i+1, j+1
		}
	}
	out = append(out, s.Entries[i:]...)
	out = append(out, o.Entries[j:]...)
	return Snapshot{Entries: out}
}

// MergeAll merges snapshots left to right (deterministic for a fixed input
// order; Merge itself is commutative for counters and gauges).
func MergeAll(snaps []Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		out = out.Merge(s)
	}
	return out
}

// Collapse merges per-instance groups into one group per component kind:
// "cache[3]/conflicts" and "cache[5]/conflicts" become "cache/conflicts".
// Use it to render compact summaries of many-bank machines.
func (s Snapshot) Collapse() Snapshot {
	byKey := make(map[string]Entry, len(s.Entries))
	for _, e := range s.Entries {
		key := e.Key
		if i := strings.IndexByte(key, '['); i >= 0 {
			if j := strings.IndexByte(key[i:], ']'); j >= 0 {
				key = key[:i] + key[i+j+1:]
			}
		}
		if old, ok := byKey[key]; ok {
			if e.Kind == KindGauge {
				if old.Val > e.Val {
					e.Val = old.Val
				}
			} else {
				e.Val += old.Val
			}
		}
		e.Key = key
		byKey[key] = e
	}
	out := make([]Entry, 0, len(byKey))
	for _, e := range byKey {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return Snapshot{Entries: out}
}

// Format renders the snapshot as one "key value" line per entry, each
// prefixed by indent. Gauge keys are annotated as high-water marks.
func (s Snapshot) Format(indent string) string {
	width := 0
	for _, e := range s.Entries {
		if len(e.Key) > width {
			width = len(e.Key)
		}
	}
	var b strings.Builder
	for _, e := range s.Entries {
		suffix := ""
		if e.Kind == KindGauge {
			suffix = "  (max)"
		}
		fmt.Fprintf(&b, "%s%-*s  %d%s\n", indent, width, e.Key, e.Val, suffix)
	}
	return b.String()
}

// Package stats is the simulator's hardware performance-counter layer: a
// registry of named counters, gauges, and histograms grouped per component
// instance ("saunit[3]", "cache[0]", "dram", ...), with snapshot, diff, and
// merge operations over the collected values.
//
// The paper's results are explained by memory-system microarchitecture
// events — stream-cache bank conflicts, combining-store occupancy, DRAM row
// locality, crossbar back-pressure (§4.2-§4.5) — and this package is how the
// simulator exposes them: every tick component allocates its metrics once at
// construction and increments plain machine words on the hot path.
//
// Concurrency contract: a Group/Registry is confined to the single goroutine
// that drives its simulation. The parallel experiment runner gives every run
// its own registry and merges the resulting Snapshots (plain values) at
// collection time, in input-index order, so reports stay race-free and
// byte-identical for any worker count.
//
// Overhead contract: metric updates are branch-free field increments with no
// allocation and no indirection beyond one pointer — cheap enough that they
// stay enabled unconditionally. "Disabling" stats (the CLI default) only
// skips Snapshot collection and rendering; the counting itself is always on
// and is guarded against regression by BenchmarkEngineTick in CI.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// MetricKind determines how snapshot entries combine under Merge and Sub.
type MetricKind uint8

const (
	// KindCounter is a monotonically increasing event count: Merge sums,
	// Sub subtracts. Histogram buckets, counts, and sums are counters too.
	KindCounter MetricKind = iota
	// KindGauge is a level with a high-water mark: Merge takes the maximum,
	// Sub keeps the newer value.
	KindGauge
)

// Counter is a monotonically increasing event count.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Gauge tracks a non-negative level and its high-water mark. Snapshots
// export the high-water mark (the level itself is transient).
type Gauge struct{ cur, max int64 }

// Set records the current level.
func (g *Gauge) Set(v int64) {
	g.cur = v
	if v > g.max {
		g.max = v
	}
}

// Add adjusts the current level by d.
func (g *Gauge) Add(d int64) { g.Set(g.cur + d) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.cur }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max }

// Histogram is a linear, value-indexed histogram: Observe(v) increments
// bucket v, with the last bucket absorbing overflow. It is sized for small
// occupancy domains (combining-store entries, MSHRs) where bucket == level.
type Histogram struct {
	buckets []uint64
	count   uint64
	sum     uint64
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

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum }

// Bucket returns the number of observations in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// Buckets returns the bucket count.
func (h *Histogram) Buckets() int { return len(h.buckets) }

// Mean returns the average observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
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
	busy  *Counter
	level int
	since uint64
}

// OccupancyLevel returns a level recorded into h, one sample per cycle.
func OccupancyLevel(h *Histogram) Level { return Level{h: h} }

// BusyLevel returns a level that adds to c every cycle it is above zero.
func BusyLevel(c *Counter) Level { return Level{busy: c} }

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
		l.busy.Add(n)
	}
}

// metric is one named instrument of a group.
type metric struct {
	name string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Group holds the metrics of one component instance. Components create a
// detached group at construction (NewGroup); a Machine or System adopts it
// into its Registry under an instance name (Registry.Adopt).
type Group struct {
	name   string
	order  []*metric
	byName map[string]*metric
}

// NewGroup returns an empty group with the given (provisional) name.
func NewGroup(name string) *Group {
	return &Group{name: name, byName: make(map[string]*metric)}
}

// Name returns the group's current name.
func (g *Group) Name() string { return g.name }

func (g *Group) metricFor(name string) *metric {
	m, ok := g.byName[name]
	if !ok {
		m = &metric{name: name}
		g.byName[name] = m
		g.order = append(g.order, m)
	}
	return m
}

// Counter returns the named counter, creating it on first use.
func (g *Group) Counter(name string) *Counter {
	m := g.metricFor(name)
	if m.g != nil || m.h != nil {
		panic(fmt.Sprintf("stats: metric %s/%s already registered with a different kind", g.name, name))
	}
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns the named gauge, creating it on first use.
func (g *Group) Gauge(name string) *Gauge {
	m := g.metricFor(name)
	if m.c != nil || m.h != nil {
		panic(fmt.Sprintf("stats: metric %s/%s already registered with a different kind", g.name, name))
	}
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns the named histogram with the given bucket count,
// creating it on first use.
func (g *Group) Histogram(name string, buckets int) *Histogram {
	if buckets < 1 {
		panic(fmt.Sprintf("stats: histogram %s/%s needs at least one bucket", g.name, name))
	}
	m := g.metricFor(name)
	if m.c != nil || m.g != nil {
		panic(fmt.Sprintf("stats: metric %s/%s already registered with a different kind", g.name, name))
	}
	if m.h == nil {
		m.h = &Histogram{buckets: make([]uint64, buckets)}
	}
	return m.h
}

// Registry is an ordered collection of groups, one per component instance.
type Registry struct {
	order  []*Group
	byName map[string]*Group
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Group)}
}

// Group returns the named group, creating it on first use.
func (r *Registry) Group(name string) *Group {
	if g, ok := r.byName[name]; ok {
		return g
	}
	g := NewGroup(name)
	r.byName[name] = g
	r.order = append(r.order, g)
	return g
}

// Adopt registers a detached group (created by a component constructor)
// under an instance name, e.g. "saunit[3]". The group is renamed.
func (r *Registry) Adopt(name string, g *Group) {
	if _, ok := r.byName[name]; ok {
		panic(fmt.Sprintf("stats: duplicate group %q", name))
	}
	g.name = name
	r.byName[name] = g
	r.order = append(r.order, g)
}

// Entry is one key/value pair of a snapshot. Histograms expand into bucket
// entries ("group/metric.b0" ...) plus ".count" and ".sum".
type Entry struct {
	Key  string
	Kind MetricKind
	Val  uint64
}

// Snapshot is an immutable, key-sorted copy of a registry's values.
type Snapshot struct {
	Entries []Entry
}

// Snapshot collects every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	var out []Entry
	for _, g := range r.order {
		for _, m := range g.order {
			key := g.name + "/" + m.name
			switch {
			case m.c != nil:
				out = append(out, Entry{Key: key, Kind: KindCounter, Val: m.c.n})
			case m.g != nil:
				v := m.g.max
				if v < 0 {
					v = 0
				}
				out = append(out, Entry{Key: key, Kind: KindGauge, Val: uint64(v)})
			case m.h != nil:
				for i, b := range m.h.buckets {
					out = append(out, Entry{Key: fmt.Sprintf("%s.b%d", key, i), Kind: KindCounter, Val: b})
				}
				out = append(out, Entry{Key: key + ".count", Kind: KindCounter, Val: m.h.count})
				out = append(out, Entry{Key: key + ".sum", Kind: KindCounter, Val: m.h.sum})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return Snapshot{Entries: out}
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

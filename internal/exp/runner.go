package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"scatteradd/internal/fault"
	"scatteradd/internal/machine"
	"scatteradd/internal/mem"
	"scatteradd/internal/multinode"
	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// This file is the experiment orchestrator: every figure's independent
// (workload, machine) runs are fanned out across a bounded worker pool.
//
// The paper's evaluation is embarrassingly parallel across configurations —
// each point of each figure builds its own machine.Machine and its own (or a
// cloned) workload, so runs share no mutable state. Determinism is by
// construction, not by scheduling: task i writes only results[i], and the
// caller assembles table rows in index order, so the rendered output is
// byte-identical for any worker count (see TestReportDeterministicAcrossJobs).
//
// Workers pull task indices from an atomic counter (work stealing), which
// load-balances the very uneven run costs (a 4M-bin histogram next to a
// 16-bin one) without affecting output order. A panic inside a task — e.g. a
// mustVerify failure — is captured and re-raised on the calling goroutine so
// figure generation fails loudly exactly as in the sequential path.
//
// Every figure point runs through runPoints: newMachine or newSystem builds
// its simulation under the options' stepping mode, faults and span tracer,
// record keeps its point record (span label, counter snapshot, span report),
// and Table.attach appends the records to the table in point order.

// jobs returns the effective worker count: Options.Jobs when positive,
// otherwise GOMAXPROCS (one worker per available CPU). Jobs = 1 reproduces
// the historical sequential behavior on the caller's goroutine.
func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// taskPanic is one captured task panic, tagged with its index and worker
// stack so forEach can re-raise deterministically.
type taskPanic struct {
	index int
	val   any
	stack []byte
}

// forEach runs fn(i) for every i in [0, n) on up to o.jobs() workers and
// returns once all calls completed. fn must confine its writes to per-index
// state. If any calls panic, the panic of the lowest index is re-raised
// here after the pool drains (with that task's captured stack) — not
// whichever worker reached the recover first — so a mustVerify failure
// reports the same task at any worker count.
func (o Options) forEach(n int, fn func(int)) {
	var completed atomic.Int64
	note := func() {
		if o.Progress != nil {
			o.Progress(int(completed.Add(1)), n)
		}
	}
	workers := o.jobs()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
			note()
		}
		return
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panics  []taskPanic
	)
	// ok reports whether the task completed; a panicked task must not count
	// as progress — the sequential path never reaches note() for it either,
	// so Progress observes the same done counts at any worker count.
	runOne := func(i int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				panics = append(panics, taskPanic{index: i, val: r, stack: debug.Stack()})
				panicMu.Unlock()
			}
		}()
		fn(i)
		return true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if runOne(i) {
					note()
				}
			}
		}()
	}
	wg.Wait()
	if len(panics) > 0 {
		first := panics[0]
		for _, p := range panics[1:] {
			if p.index < first.index {
				first = p
			}
		}
		panic(fmt.Sprintf("exp: task %d: %v\n\ntask stack:\n%s", first.index, first.val, first.stack))
	}
}

// mapN fans fn out across the worker pool and collects the results indexed
// by input position, preserving input order regardless of scheduling.
func mapN[T any](o Options, n int, fn func(int) T) []T {
	out := make([]T, n)
	o.forEach(n, func(i int) { out[i] = fn(i) })
	return out
}

// simulator is the simulation behind one figure point: a *machine.Machine
// or a *multinode.System.
type simulator interface {
	SetSpanTracer(*span.Tracer)
	StatsSnapshot() stats.Snapshot
}

// newMachine builds the machine cfg describes (see build).
func (o Options) newMachine(cfg machine.Config) (*machine.Machine, *span.Tracer) {
	return build(o, &cfg.LegacyStepping, &cfg.Faults, func() *machine.Machine { return machine.New(cfg) })
}

// newSystem builds the multi-node system cfg describes, for traces of kind
// (see build).
func (o Options) newSystem(cfg multinode.Config, kind mem.Kind) (*multinode.System, *span.Tracer) {
	return build(o, &cfg.LegacyStepping, &cfg.Faults, func() *multinode.System { return multinode.New(cfg, kind) })
}

// build is the one place the options reach a simulation: it sets the
// config's stepping mode and faults (the fields legacy and faults point at)
// from the options, builds the simulation with newSim, and installs a fresh
// span tracer on it when the options collect spans. Every simulation owns
// its tracer, as it owns its counters, so concurrent points share nothing.
func build[S simulator](o Options, legacy *bool, faults *fault.Config, newSim func() S) (S, *span.Tracer) {
	*legacy, *faults = o.Legacy, o.Faults
	s := newSim()
	var tr *span.Tracer
	if o.CollectSpans {
		tr = span.New(o.spanRate())
	}
	s.SetSpanTracer(tr)
	return s, tr
}

// pointRecord is the record one simulation leaves in its table: the label of
// its span row and, as the options ask, its counter snapshot and span report.
type pointRecord struct {
	label string
	snap  stats.Snapshot
	rep   span.Report
}

// record takes the record of point label once sim, traced by tr, has run.
func (o Options) record(label string, sim simulator, tr *span.Tracer) pointRecord {
	p := pointRecord{label: label}
	if o.CollectStats {
		p.snap = sim.StatsSnapshot()
	}
	if o.CollectSpans {
		p.rep = span.Aggregate(tr.Ops())
	}
	return p
}

// attach appends the points' span rows and merged counters to t, in point
// order, as the options ask.
func (t *Table) attach(o Options, points []pointRecord) {
	snaps := make([]stats.Snapshot, len(points))
	for i, p := range points {
		snaps[i] = p.snap
		if o.CollectSpans {
			t.Spans = append(t.Spans, SpanRow{Label: p.label, Report: p.rep})
		}
	}
	if o.CollectStats {
		t.Counters = stats.MergeAll(snaps)
	}
}

// runPoints is the point runner every figure goes through: it fans points
// 0..n-1 out across the worker pool, where run(i) builds point i's
// simulation with newMachine or newSystem, runs and verifies it, and returns
// its result and record. It returns the results in point order and attaches
// the records to t.
func runPoints[R any](o Options, t *Table, n int, run func(i int) (R, pointRecord)) []R {
	points := make([]pointRecord, n)
	res := mapN(o, n, func(i int) R {
		r, p := run(i)
		points[i] = p
		return r
	})
	t.attach(o, points)
	return res
}

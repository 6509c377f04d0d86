package exp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
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

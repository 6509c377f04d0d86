package sim

import "testing"

// BenchmarkEngineStep measures the bare per-cycle dispatch cost of the
// engine over a representative set of queue-shuffling components, including
// the (inactive) sampler check. The full-machine hot path is covered by
// BenchmarkEngineTick in internal/machine.
func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine()
	const stages = 8
	qs := make([]*Queue[int], stages+1)
	for i := range qs {
		qs[i] = NewQueue[int](16)
	}
	for s := 0; s < stages; s++ {
		in, out := qs[s], qs[s+1]
		e.Add(TickFunc(func(uint64) {
			if v := in.Peek(); v != nil && out.Push(*v) {
				in.Pop()
			}
		}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs[0].Push(i)
		qs[stages].Pop()
		e.Step()
	}
}

// BenchmarkEngineFastForward measures the quiescence jump loop: a machine
// of mostly-idle components (period-64 pulses, out of phase) advanced 1024
// cycles per iteration. Steady state must be allocation free — the engine
// loop and horizon scan run on preallocated state — which the CI bench run
// checks via the reported allocs/op.
func BenchmarkEngineFastForward(b *testing.B) {
	e := NewEngine()
	ps := make([]*ffPulse, 8)
	for i := range ps {
		ps[i] = &ffPulse{period: 64, phase: uint64(i * 8)}
		e.Add(ps[i])
	}
	done := func() bool { return false }
	limit := uint64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		limit += 1024
		e.RunUntil(done, limit)
	}
	b.StopTimer()
	for _, p := range ps {
		if p.work != limit/p.period || p.ticks >= limit {
			b.Fatalf("pulse accounting broken: work=%d ticks=%d limit=%d", p.work, p.ticks, limit)
		}
	}
}

// ffPulse does work every period cycles at the given phase offset and is
// quiescent otherwise (benchmark twin of the pulse in fastforward_test.go).
type ffPulse struct {
	period, phase uint64
	work          uint64
	ticks         uint64
}

func (p *ffPulse) Tick(now uint64) {
	p.ticks++
	if (now+p.phase)%p.period == 0 {
		p.work++
	}
}

func (p *ffPulse) NextEvent(now uint64) uint64 {
	n := now + p.phase
	if n%p.period == 0 {
		return now
	}
	return (n/p.period+1)*p.period - p.phase
}

func BenchmarkQueuePushPop(b *testing.B) {
	q := NewQueue[int](64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Push(i)
		q.Pop()
	}
}

func BenchmarkDelayPushPop(b *testing.B) {
	d := NewDelay[int](4, 64)
	now := uint64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Push(now, i)
		d.Pop(now)
		now++
	}
}

func BenchmarkRoundRobinPick(b *testing.B) {
	rr := NewRoundRobin(8)
	want := func(i int) bool { return i&1 == 0 }
	for i := 0; i < b.N; i++ {
		rr.Pick(want)
	}
}

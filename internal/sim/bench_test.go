package sim

import "testing"

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

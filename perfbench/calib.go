package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// Host-speed calibration.
//
// The small shared VMs this benchmark was written on change speed by up to
// half within minutes: other tenants contend for the cores and the memory
// system, and the simulator's pass times follow (a 1.6 s pass became 2.8 s
// four minutes later). A fixed set of kernels that share no code with the
// simulator — integer arithmetic, random access to an 8 MiB table,
// allocation with map lookups, and a sort — is timed after the set-up and
// in the breaks between simulations (see breakEvery). The geometric mean
// of their slowdowns against fixed reference times is the host's slowdown
// at that moment; the median over a run's samples is the run's slowdown,
// and every host time the run reports is divided by it, so host times
// read as seconds at the reference speed. One sample is short and noisy,
// so the run's median, not the sample next to a simulation, is what
// scales the run. The undivided times spread about twice as widely from
// run to run; steadiness.txt records both.

// kernel is one calibration kernel. Its reference time is the fastest of 50
// runs on the 2-vCPU Intel Xeon VM the benchmark was written on (go1.24,
// after a forced GC, with 100 MiB live), so a slowdown near 1 means a
// quiet host.
type kernel struct {
	ref time.Duration
	run func() uint64
}

var kernels = []kernel{
	{73 * time.Millisecond, aluKernel},
	{13 * time.Millisecond, memoryKernel},
	{29 * time.Millisecond, allocKernel},
	{26 * time.Millisecond, sortKernel},
}

// calibSink keeps the kernels' results live.
var calibSink uint64

// sampleHost calibrates after a forced GC, repeatedly until the samples
// have taken at least d (at least once), and returns the slowdowns.
func sampleHost(d time.Duration) []float64 {
	var out []float64
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		runtime.GC()
		out = append(out, calibrate())
	}
	return out
}

// calibrate times every kernel once and returns the host's slowdown
// against the reference times (1 = reference speed, 2 = half speed).
func calibrate() float64 {
	var logSum float64
	for _, k := range kernels {
		start := time.Now()
		calibSink += k.run()
		logSum += math.Log(float64(time.Since(start)) / float64(k.ref))
	}
	return math.Exp(logSum / float64(len(kernels)))
}

// xorshift advances a 64-bit xorshift generator.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func aluKernel() uint64 {
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 30_000_000; i++ {
		x = xorshift(x)
		acc += x >> 60
	}
	return acc
}

func memoryKernel() uint64 {
	const size = 1 << 21 // 8 MiB of uint32
	table := make([]uint32, size)
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 2_000_000; i++ {
		x = xorshift(x)
		j := x & (size - 1)
		table[j]++
		acc += uint64(table[(j*7)&(size-1)])
	}
	return acc
}

type calibNode struct {
	key  uint64
	next *calibNode
	_    [5]uint64
}

func allocKernel() uint64 {
	m := make(map[uint64]*calibNode)
	var head *calibNode
	x := uint64(88172645463325252)
	for i := 0; i < 200_000; i++ {
		x = xorshift(x)
		head = &calibNode{key: x, next: head}
		m[x&0xfffff] = head
	}
	var acc uint64
	for n := head; n != nil; n = n.next {
		if v, ok := m[n.key&0xfffff]; ok {
			acc += v.key
		}
	}
	return acc
}

func sortKernel() uint64 {
	xs := make([]uint64, 1<<18)
	x := uint64(88172645463325252)
	for i := range xs {
		x = xorshift(x)
		xs[i] = x
	}
	slices.Sort(xs)
	return xs[0] ^ xs[len(xs)-1]
}

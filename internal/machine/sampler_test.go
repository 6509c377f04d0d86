package machine

import (
	"reflect"
	"testing"

	"scatteradd/internal/mem"
	"scatteradd/internal/stats"
)

// samplerProgram is a short scatter-add followed by an idle kernel that
// spans several sampler intervals of 100 cycles: fast-forward crosses the
// kernel in jumps, which must stop at every multiple.
func samplerProgram() []Op {
	addrs := make([]mem.Addr, 256)
	for i := range addrs {
		addrs[i] = mem.Addr((i * 37) % 300)
	}
	return []Op{
		ScatterAdd("sa", mem.AddI64, addrs, []mem.Word{mem.I64(1)}),
		Kernel("idle", 128*1000, 0),
	}
}

// samplerRun runs samplerProgram with a sampler every 100 cycles, through
// StartTimeline when timeline is set and through SetSampler otherwise, and
// returns what it recorded.
func samplerRun(legacy, timeline bool) stats.Timeline {
	const every = 100
	cfg := smallConfig()
	cfg.LegacyStepping = legacy
	m := New(cfg)
	if timeline {
		tl := m.StartTimeline(every)
		m.Run(samplerProgram())
		return *tl
	}
	got := stats.Timeline{Interval: every}
	m.SetSampler(every, func(now uint64) { got.Record(now, m.StatsSnapshot()) })
	m.Run(samplerProgram())
	return got
}

// TestSamplerFiresAtIntervalMultiples checks that SetSampler and
// StartTimeline fire after exactly the cycles k*interval, k = 1, 2, ...,
// whether the machine steps every cycle or fast-forwards.
func TestSamplerFiresAtIntervalMultiples(t *testing.T) {
	for _, legacy := range []bool{true, false} {
		for _, timeline := range []bool{false, true} {
			got := samplerRun(legacy, timeline)
			if len(got.Samples) < 10 {
				t.Fatalf("legacy=%v timeline=%v: %d samples, want the idle kernel to span at least 10 intervals", legacy, timeline, len(got.Samples))
			}
			for k, s := range got.Samples {
				if want := uint64(k+1) * got.Interval; s.Cycle != want {
					t.Fatalf("legacy=%v timeline=%v: sample %d at cycle %d, want %d", legacy, timeline, k, s.Cycle, want)
				}
			}
		}
	}
}

// TestSamplerSequenceUnderFastForward checks that fast-forward records the
// same samples, cycles and snapshots both, as stepping every cycle, across
// an idle kernel whose jumps would cross several sample points if they were
// not capped at the next multiple.
func TestSamplerSequenceUnderFastForward(t *testing.T) {
	for _, timeline := range []bool{false, true} {
		fast, slow := samplerRun(false, timeline), samplerRun(true, timeline)
		if len(fast.Samples) == 0 {
			t.Fatalf("timeline=%v: the sampler never fired under fast-forward", timeline)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("timeline=%v: samples differ between fast-forward and legacy stepping", timeline)
		}
	}
}

// TestSamplerRemove checks that SetSampler(interval, nil) and StopTimeline
// each empty the sampler slot: nothing fires after them.
func TestSamplerRemove(t *testing.T) {
	m := New(smallConfig())
	idle := Kernel("idle", 128*100, 0)
	fired := 0
	m.SetSampler(10, func(uint64) { fired++ })
	m.RunOp(idle)
	m.SetSampler(10, nil)
	was := fired
	tl := m.StartTimeline(10)
	m.RunOp(idle)
	m.StopTimeline()
	samples := len(tl.Samples)
	m.RunOp(idle)
	if was == 0 || fired != was {
		t.Errorf("SetSampler fired %d times, then %d more after SetSampler(10, nil)", was, fired-was)
	}
	if samples == 0 || len(tl.Samples) != samples {
		t.Errorf("timeline recorded %d samples, then %d more after StopTimeline", samples, len(tl.Samples)-samples)
	}
}

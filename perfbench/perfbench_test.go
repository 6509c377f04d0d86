package main

import (
	"math"
	"runtime"
	"testing"
	"time"

	"scatteradd/internal/mem"
	"scatteradd/internal/stats"
)

// The check's quartiles must be the ones Python's
// statistics.quantiles(values, n=4) gives, which the acceptance rule uses.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		xs            []float64
		q1, med, q3   float64
		wantSpreadPct float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 100},
		{[]float64{3.1, 1.2, 5.5, 2.2, 9.9, 4.4, 7.0}, 2.2, 4.4, 7.0, 109.09090909},
		{[]float64{2.5, 1.5}, 1.25, 2.0, 2.75, 75},
	} {
		s := summarize(c.xs)
		if s.n != len(c.xs) || !near(s.q1, c.q1) || !near(s.median, c.med) || !near(s.q3, c.q3) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, s, c.q1, c.med, c.q3)
		}
		if got := 100 * s.spread(); !near(got, c.wantSpreadPct) {
			t.Errorf("spread(%v) = %g%%, want %g%%", c.xs, got, c.wantSpreadPct)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

// Self time subtracts the children's durations from their parent's, and
// spans are totalled per name within one pass.
func TestSelfTotals(t *testing.T) {
	tr := newTracer()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	tr.spans = []spanRec{
		{name: spanPass, start: 0, end: ms(100), parent: -1, pass: 0},
		{name: spanSim, start: ms(10), end: ms(60), parent: 0, pass: 0},
		{name: spanApps, start: ms(10), end: ms(40), parent: 1, pass: 0},
		{name: spanAppsVerify, start: ms(40), end: ms(50), parent: 1, pass: 0},
		{name: spanSim, start: ms(60), end: ms(90), parent: 0, pass: 0},
		{name: spanApps, start: ms(60), end: ms(85), parent: 4, pass: 0},
		{name: spanApps, start: ms(200), end: ms(300), parent: -1, pass: 1},
	}
	got := tr.selfTotals(0)
	for name, want := range map[string]time.Duration{
		spanPass: ms(20), spanSim: ms(15), spanApps: ms(55), spanAppsVerify: ms(10),
	} {
		if got[name].self != want {
			t.Errorf("self time of %s = %v, want %v", name, got[name].self, want)
		}
	}
}

// Integer traces must match exactly; floating-point traces within 1e-9
// relative (absolute below magnitude 1).
func TestTraceCheck(t *testing.T) {
	ints := &trace{name: "hist", wantI: []int64{3, 0, 5}}
	if err := ints.check([]mem.Word{mem.I64(3), mem.I64(0), mem.I64(5)}); err != nil {
		t.Errorf("exact bins rejected: %v", err)
	}
	if err := ints.check([]mem.Word{mem.I64(3), mem.I64(1), mem.I64(5)}); err == nil {
		t.Error("a wrong bin passed")
	}
	fl := &trace{name: "f64", wantF: []float64{1e6, 0.5}}
	if err := fl.check([]mem.Word{mem.F64(1e6 * (1 + 5e-10)), mem.F64(0.5 + 5e-10)}); err != nil {
		t.Errorf("sums within tolerance rejected: %v", err)
	}
	if err := fl.check([]mem.Word{mem.F64(1e6 * (1 + 2e-9)), mem.F64(0.5)}); err == nil {
		t.Error("a sum outside tolerance passed")
	}
}

// Component counters are summed across instances of both naming schemes.
func TestCountsStripInstances(t *testing.T) {
	c := counts{}
	c.addSnapshot(stats.Snapshot{Entries: []stats.Entry{
		{Key: "cache[0]/hits", Val: 2},
		{Key: "cache[3.1]/hits", Val: 5},
		{Key: "comb[3.1]/hits", Val: 7},
		{Key: "dram/row_hits", Val: 4},
	}})
	if c["cache.hits"] != 7 || c["dram.row_hits"] != 4 || len(c) != 2 {
		t.Errorf("counts = %v, want cache.hits 7 and dram.row_hits 4 only", c)
	}
}

// The check reads a run's result line, its raw host times and its host.
func TestParseChild(t *testing.T) {
	out := "perfbench workload=paper seed=1\n" +
		"env nproc=2 gomaxprocs=2 go=go1.24.0 cpu=\"Xeon\"\n" +
		"raw wall_s=1.5 cpu_s=1.25 setup_s=0.02\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"wall_s":{"value":1.2,"unit":"s"}}}` + "\n"
	c, err := parseChild(out)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Correct || c.Attempted != 3 || c.Metrics["wall_s"].Value != 1.2 {
		t.Errorf("result = %+v", c.result)
	}
	if c.raw["wall_s"] != 1.5 || c.raw["cpu_s"] != 1.25 || c.raw["setup_s"] != 0.02 {
		t.Errorf("raw = %v", c.raw)
	}
	if c.env != `nproc=2 gomaxprocs=2 go=go1.24.0 cpu="Xeon"` {
		t.Errorf("env = %q", c.env)
	}
	if _, err := parseChild("no result\n"); err == nil {
		t.Error("output without a result line parsed")
	}
}

// A pass's peak RSS counts the memory touched after the mark is reset.
func TestPeakRSS(t *testing.T) {
	if err := resetPeakRSS(); err != nil {
		t.Skip(err)
	}
	before, err := peakRSS()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	after, err := peakRSS()
	if err != nil {
		t.Fatal(err)
	}
	if after < before+60<<10 {
		t.Errorf("peak RSS %d KiB after touching 64 MiB, %d KiB before", after, before)
	}
	runtime.KeepAlive(buf)
}

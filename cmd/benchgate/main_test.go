package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"scatteradd/internal/server"
)

const sample = `goos: linux
goarch: amd64
pkg: scatteradd/internal/machine
BenchmarkEngineTick-8   	  107334	      2400 ns/op	      16 B/op	       1 allocs/op
BenchmarkEngineTick-8   	  108000	      2300 ns/op
BenchmarkEngineTick-8   	  107500	      2500 ns/op
BenchmarkSAUnitTick 	 1013354	       209.1 ns/op
PASS
ok  	scatteradd/internal/machine	0.607s
`

func TestSummarize(t *testing.T) {
	sum, err := Summarize(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	et := sum["BenchmarkEngineTick"]
	if et == nil {
		t.Fatal("proc-count suffix not stripped: BenchmarkEngineTick missing")
	}
	if et.Runs != 3 || et.Median != 2400 {
		t.Errorf("EngineTick: runs=%d median=%v, want 3 runs median 2400", et.Runs, et.Median)
	}
	sa := sum["BenchmarkSAUnitTick"]
	if sa == nil || sa.Median != 209.1 {
		t.Errorf("SAUnitTick = %+v, want median 209.1", sa)
	}
	if len(sum) != 2 {
		t.Errorf("got %d benchmarks, want 2", len(sum))
	}
}

func TestParseLineRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	scatteradd/internal/machine	0.607s",
		"BenchmarkBroken-8 xyz abc ns/op",
		"Benchmark only three",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted, want rejected", line)
		}
	}
}

func TestMedianEvenCount(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func gateFixtures(curNs, baseNs float64) (sum, base map[string]*Result) {
	sum = map[string]*Result{"BenchmarkEngineTick": {Name: "BenchmarkEngineTick", Median: curNs}}
	base = map[string]*Result{"BenchmarkEngineTick": {Name: "BenchmarkEngineTick", Median: baseNs}}
	return
}

func TestGate(t *testing.T) {
	tests := []struct {
		name         string
		cur, base    float64
		nilBase      bool
		absentInBase bool
		want         bool
	}{
		{name: "within limit", cur: 2150, base: 2000, want: true},
		{name: "improvement", cur: 1500, base: 2000, want: true},
		{name: "over limit", cur: 2500, base: 2000, want: false},
		{name: "exactly at limit", cur: 2200, base: 2000, want: true},
		{name: "missing baseline file", cur: 2500, nilBase: true, want: true},
		{name: "gate absent in baseline", cur: 2500, absentInBase: true, want: true},
	}
	for _, tc := range tests {
		sum, base := gateFixtures(tc.cur, tc.base)
		if tc.nilBase {
			base = nil
		}
		if tc.absentInBase {
			base = map[string]*Result{}
		}
		msg, ok := Gate(sum, base, "BenchmarkEngineTick", 0.10)
		if ok != tc.want {
			t.Errorf("%s: Gate = %v (%s), want %v", tc.name, ok, msg, tc.want)
		}
	}
}

func TestGateMissingInInput(t *testing.T) {
	sum, base := gateFixtures(2000, 2000)
	delete(sum, "BenchmarkEngineTick")
	if msg, ok := Gate(sum, base, "BenchmarkEngineTick", 0.10); ok {
		t.Errorf("Gate with missing input benchmark passed (%s), want fail", msg)
	}
}

func loadFixture() server.LoadReport {
	return server.LoadReport{
		Sent: 300, OK: 290, AchievedRPS: 29.0,
		Rejected429: 8, Drained503: 2,
		Latency: server.LatencySummary{Count: 290, P99: float64(800 * time.Millisecond)},
	}
}

func TestLatencyGate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*server.LoadReport)
		maxP99 time.Duration
		minRPS float64
		max5xx int
		want   bool
	}{
		{name: "healthy run", maxP99: 2 * time.Second, minRPS: 10, want: true},
		{name: "p99 over limit", maxP99: 500 * time.Millisecond, want: false},
		{name: "p99 ungated when zero", maxP99: 0, want: true},
		{name: "rps under floor", minRPS: 50, want: false},
		{name: "genuine 5xx over limit", mutate: func(r *server.LoadReport) { r.Errors5xx = 1 }, want: false},
		{name: "5xx within allowance", mutate: func(r *server.LoadReport) { r.Errors5xx = 1 }, max5xx: 1, want: true},
		{name: "pushback never gates", mutate: func(r *server.LoadReport) { r.Rejected429 = 200; r.Drained503 = 50 }, want: true},
		{name: "transport errors are hard fail", mutate: func(r *server.LoadReport) { r.TransportErrors = 1 }, want: false},
		{name: "empty run gates nothing", mutate: func(r *server.LoadReport) { r.Latency = server.LatencySummary{}; r.OK = 0 }, want: false},
	}
	for _, tc := range tests {
		rep := loadFixture()
		if tc.mutate != nil {
			tc.mutate(&rep)
		}
		msg, ok := LatencyGate(rep, tc.maxP99, tc.minRPS, tc.max5xx)
		if ok != tc.want {
			t.Errorf("%s: LatencyGate = %v (%s), want %v", tc.name, ok, msg, tc.want)
		}
	}
}

const goodScrape1 = `# HELP scatteradd_http_requests_total Requests completed.
# TYPE scatteradd_http_requests_total counter
scatteradd_http_requests_total{endpoint="/v1/run",class="2xx"} 10
# HELP scatteradd_http_request_duration_seconds Total request duration.
# TYPE scatteradd_http_request_duration_seconds histogram
scatteradd_http_request_duration_seconds_bucket{endpoint="/v1/run",le="0.1"} 8
scatteradd_http_request_duration_seconds_bucket{endpoint="/v1/run",le="+Inf"} 10
scatteradd_http_request_duration_seconds_sum{endpoint="/v1/run"} 0.42
scatteradd_http_request_duration_seconds_count{endpoint="/v1/run"} 10
`

const goodScrape2 = `# HELP scatteradd_http_requests_total Requests completed.
# TYPE scatteradd_http_requests_total counter
scatteradd_http_requests_total{endpoint="/v1/run",class="2xx"} 14
# HELP scatteradd_http_request_duration_seconds Total request duration.
# TYPE scatteradd_http_request_duration_seconds histogram
scatteradd_http_request_duration_seconds_bucket{endpoint="/v1/run",le="0.1"} 11
scatteradd_http_request_duration_seconds_bucket{endpoint="/v1/run",le="+Inf"} 14
scatteradd_http_request_duration_seconds_sum{endpoint="/v1/run"} 0.61
scatteradd_http_request_duration_seconds_count{endpoint="/v1/run"} 14
`

func writeScrape(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPromLintClean(t *testing.T) {
	p1 := writeScrape(t, "s1.txt", goodScrape1)
	msg, ok := PromLint([]string{p1})
	if !ok {
		t.Fatalf("clean scrape failed lint:\n%s", msg)
	}
	if !strings.Contains(msg, "samples ok") {
		t.Fatalf("message: %s", msg)
	}
}

func TestPromLintMonotonicPair(t *testing.T) {
	p1 := writeScrape(t, "s1.txt", goodScrape1)
	p2 := writeScrape(t, "s2.txt", goodScrape2)
	msg, ok := PromLint([]string{p1, p2})
	if !ok {
		t.Fatalf("monotonic pair failed:\n%s", msg)
	}
	if !strings.Contains(msg, "monotonic") {
		t.Fatalf("message: %s", msg)
	}
	// Reversed order: the counters "go backwards".
	if msg, ok := PromLint([]string{p2, p1}); ok {
		t.Fatalf("reversed scrapes passed:\n%s", msg)
	}
}

func TestPromLintViolations(t *testing.T) {
	bad := writeScrape(t, "bad.txt", "# TYPE hits counter\nhits 3\nhits 3\n")
	msg, ok := PromLint([]string{bad})
	if ok {
		t.Fatalf("bad scrape passed:\n%s", msg)
	}
	if !strings.Contains(msg, "_total") || !strings.Contains(msg, "duplicate") {
		t.Fatalf("message: %s", msg)
	}
}

func TestPromLintUnparseable(t *testing.T) {
	bad := writeScrape(t, "bad.txt", "m{a=unquoted} 1\n")
	if msg, ok := PromLint([]string{bad}); ok {
		t.Fatalf("unparseable scrape passed:\n%s", msg)
	}
	if _, ok := PromLint([]string{filepath.Join(t.TempDir(), "missing.txt")}); ok {
		t.Fatal("missing file passed")
	}
	if _, ok := PromLint(nil); ok {
		t.Fatal("empty file list passed")
	}
}

// Command benchgate parses `go test -bench` output, summarizes each
// benchmark's median ns/op as JSON, and optionally gates a PR on a
// regression bound against a baseline summary from the main branch.
//
// Usage:
//
//	go test -bench . -count 5 ./... | benchgate -out BENCH_PR.json
//	benchgate -in pr.txt -out BENCH_PR.json -baseline base.json \
//	          -gate BenchmarkEngineTick -max-regress 0.10
//
// The baseline is a previous -out file. A missing or empty baseline, or a
// baseline that lacks the gate benchmark, disables the gate (the first run
// on a branch has nothing to compare against); parse errors in the inputs
// do not.
//
// A second mode gates a saload report instead of bench output — the
// server-load CI job's latency/availability bar:
//
//	benchgate -latency LOAD_PR.json -max-p99 2s -min-rps 10 -max-5xx 0
//
// It fails on p99 above -max-p99, achieved RPS below -min-rps, more than
// -max-5xx genuine 5xx responses, or any transport error. 429s and drain
// 503s are expected pushback and never gate. -latency skips the benchmark
// parsing entirely.
//
// A third mode lints Prometheus /metrics scrapes — the server-smoke CI
// job's telemetry-hygiene bar:
//
//	benchgate -promlint scrape1.txt
//	benchgate -promlint scrape1.txt,scrape2.txt
//
// Each file must parse as text exposition format and pass name/label
// hygiene, TYPE declaration, duplicate-series, and histogram-consistency
// checks; with two files (scrapes of the same server, in order) every
// counter and histogram series must also be monotonic between them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"scatteradd/internal/obs"
	"scatteradd/internal/server"
)

func main() {
	in := flag.String("in", "", "benchmark output file (default stdin)")
	out := flag.String("out", "", "JSON summary output file (default stdout)")
	baseline := flag.String("baseline", "", "baseline JSON summary to gate against (optional)")
	gate := flag.String("gate", "BenchmarkEngineTick", "benchmark name the regression gate applies to")
	maxRegress := flag.Float64("max-regress", 0.10, "maximum allowed fractional ns/op regression of the gate benchmark")
	latency := flag.String("latency", "", "saload report to gate instead of bench output")
	maxP99 := flag.Duration("max-p99", 0, "with -latency: maximum allowed p99 (0 = don't gate p99)")
	minRPS := flag.Float64("min-rps", 0, "with -latency: minimum achieved 2xx rate (0 = don't gate)")
	max5xx := flag.Int("max-5xx", 0, "with -latency: maximum allowed genuine 5xx responses")
	promlint := flag.String("promlint", "", "lint /metrics scrape file(s), comma-separated; two files also check counter monotonicity")
	flag.Parse()

	if *promlint != "" {
		msg, ok := PromLint(strings.Split(*promlint, ","))
		fmt.Fprint(os.Stderr, msg)
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *latency != "" {
		rep, err := server.ReadLoadReport(*latency)
		if err != nil {
			fatal(err)
		}
		msg, ok := LatencyGate(rep, *maxP99, *minRPS, *max5xx)
		fmt.Fprintln(os.Stderr, msg)
		if !ok {
			os.Exit(1)
		}
		return
	}

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	sum, err := Summarize(r)
	if err != nil {
		fatal(err)
	}
	if len(sum) == 0 {
		fatal(fmt.Errorf("no benchmark results in input"))
	}

	js, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		fatal(err)
	}
	js = append(js, '\n')
	if *out == "" {
		os.Stdout.Write(js)
	} else if err := os.WriteFile(*out, js, 0o644); err != nil {
		fatal(err)
	}

	if *baseline == "" {
		return
	}
	base, err := loadBaseline(*baseline)
	if err != nil {
		fatal(err)
	}
	msg, ok := Gate(sum, base, *gate, *maxRegress)
	fmt.Fprintln(os.Stderr, msg)
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
	os.Exit(2)
}

// Result is one benchmark's summary across repeated -count runs.
type Result struct {
	Name    string    `json:"name"`
	Runs    int       `json:"runs"`
	NsPerOp []float64 `json:"ns_per_op"`
	Median  float64   `json:"median_ns_per_op"`
}

// Summarize parses `go test -bench` output and reduces each benchmark to
// its median ns/op. GOMAXPROCS suffixes ("-8") are stripped so results
// compare across runner shapes; non-benchmark lines are ignored.
func Summarize(r io.Reader) (map[string]*Result, error) {
	sum := make(map[string]*Result)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, ns, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		res := sum[name]
		if res == nil {
			res = &Result{Name: name}
			sum[name] = res
		}
		res.Runs++
		res.NsPerOp = append(res.NsPerOp, ns)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, res := range sum {
		res.Median = median(res.NsPerOp)
	}
	return sum, sc.Err()
}

// parseLine extracts (name, ns/op) from one benchmark result line, e.g.
//
//	BenchmarkEngineTick-8   107334   2382 ns/op   16 B/op   1 allocs/op
func parseLine(line string) (string, float64, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", 0, false
	}
	name := f[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	for i := 2; i+1 < len(f); i++ {
		if f[i+1] == "ns/op" {
			ns, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return "", 0, false
			}
			return name, ns, true
		}
	}
	return "", 0, false
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// loadBaseline reads a previous summary; a missing or empty file yields a
// nil map, which Gate treats as "nothing to compare against".
func loadBaseline(path string) (map[string]*Result, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(strings.TrimSpace(string(b))) == 0 {
		return nil, nil
	}
	var base map[string]*Result
	if err := json.Unmarshal(b, &base); err != nil {
		return nil, fmt.Errorf("baseline %s: %v", path, err)
	}
	return base, nil
}

// LatencyGate holds a saload report against the server-load job's bars:
// p99 latency, achieved throughput, genuine 5xx count, and transport
// errors. An empty report (no 2xx latencies at all) is a hard failure — a
// load test that measured nothing gates nothing.
func LatencyGate(rep server.LoadReport, maxP99 time.Duration, minRPS float64, max5xx int) (string, bool) {
	var fails []string
	if rep.Latency.Count == 0 {
		fails = append(fails, "no successful requests measured")
	}
	if maxP99 > 0 && rep.Latency.P99 > float64(maxP99) {
		fails = append(fails, fmt.Sprintf("p99 %s > limit %s", time.Duration(rep.Latency.P99), maxP99))
	}
	if minRPS > 0 && rep.AchievedRPS < minRPS {
		fails = append(fails, fmt.Sprintf("achieved %.1f rps < floor %.1f", rep.AchievedRPS, minRPS))
	}
	if rep.Errors5xx > max5xx {
		fails = append(fails, fmt.Sprintf("%d genuine 5xx > limit %d", rep.Errors5xx, max5xx))
	}
	if rep.TransportErrors > 0 {
		fails = append(fails, fmt.Sprintf("%d transport errors", rep.TransportErrors))
	}
	line := fmt.Sprintf("benchgate: load: %d ok / %d sent (%.1f rps), p99 %s, %d x 429, %d drained, %d x 5xx",
		rep.OK, rep.Sent, rep.AchievedRPS, time.Duration(rep.Latency.P99), rep.Rejected429, rep.Drained503, rep.Errors5xx)
	if len(fails) > 0 {
		return fmt.Sprintf("%s FAIL: %s", line, strings.Join(fails, "; ")), false
	}
	return line + " ok", true
}

// PromLint validates one or two /metrics scrape files: exposition-format
// syntax, metric-name hygiene, TYPE declarations, duplicate series,
// histogram consistency — and, given two scrapes of the same server in
// order, monotonicity of every counter and histogram series between them.
func PromLint(paths []string) (string, bool) {
	if len(paths) == 0 || len(paths) > 2 {
		return fmt.Sprintf("benchgate: -promlint: want 1 or 2 files, got %d\n", len(paths)), false
	}
	var b strings.Builder
	ok := true
	scrapes := make([]*obs.Scrape, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(&b, "benchgate: promlint: %v\n", err)
			return b.String(), false
		}
		s, err := obs.ParseProm(data)
		if err != nil {
			fmt.Fprintf(&b, "benchgate: promlint: %s: %v\n", path, err)
			return b.String(), false
		}
		if problems := s.Lint(); len(problems) > 0 {
			ok = false
			for _, p := range problems {
				fmt.Fprintf(&b, "benchgate: promlint: %s: %s\n", path, p)
			}
		} else {
			fmt.Fprintf(&b, "benchgate: promlint: %s: %d samples ok\n", path, len(s.Samples))
		}
		scrapes = append(scrapes, s)
	}
	if len(scrapes) == 2 {
		if problems := obs.CheckMonotonic(scrapes[0], scrapes[1]); len(problems) > 0 {
			ok = false
			for _, p := range problems {
				fmt.Fprintf(&b, "benchgate: promlint: %s -> %s: %s\n", paths[0], paths[1], p)
			}
		} else {
			fmt.Fprintf(&b, "benchgate: promlint: counters monotonic across scrapes\n")
		}
	}
	return b.String(), ok
}

// Gate compares the gate benchmark's median against the baseline and
// reports whether the change is within maxRegress.
func Gate(sum, base map[string]*Result, gate string, maxRegress float64) (string, bool) {
	cur, ok := sum[gate]
	if !ok {
		return fmt.Sprintf("benchgate: FAIL: gate benchmark %s not found in input", gate), false
	}
	old, ok := base[gate]
	if !ok || old.Median <= 0 {
		return fmt.Sprintf("benchgate: no baseline for %s; gate skipped", gate), true
	}
	delta := (cur.Median - old.Median) / old.Median
	verdict := "ok"
	pass := delta <= maxRegress
	if !pass {
		verdict = fmt.Sprintf("FAIL (limit +%.0f%%)", maxRegress*100)
	}
	return fmt.Sprintf("benchgate: %s: %.1f ns/op -> %.1f ns/op (%+.1f%%) %s",
		gate, old.Median, cur.Median, delta*100, verdict), pass
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the check mode reads.
type spec struct {
	RunSeconds float64      `json:"run_seconds"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

// mismatch names the metrics that are declared but not reported with the
// declared unit, or reported but not declared.
func mismatch(declared []specMetric, got map[string]metric) []string {
	var out []string
	for _, m := range declared {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			out = append(out, m.Name)
		}
	}
	if len(got) != len(declared) {
		out = append(out, fmt.Sprintf("%d reported for %d declared", len(got), len(declared)))
	}
	return out
}

// childRun is one run of the benchmark as the check saw it: its result
// line, the host-time medians before the host-slowdown division (the
// "raw" line), and the host it ran on (the "env" line).
type childRun struct {
	result
	seed uint64
	raw  map[string]float64
	env  string
}

// parseChild reads a run's standard output.
func parseChild(out string) (childRun, error) {
	lines := strings.Split(strings.TrimSpace(out), "\n")
	c := childRun{raw: map[string]float64{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c.result); err != nil {
		return c, fmt.Errorf("last line %q: %w", lines[len(lines)-1], err)
	}
	for _, line := range lines {
		if rest, ok := strings.CutPrefix(line, "env "); ok {
			c.env = rest
		}
		if rest, ok := strings.CutPrefix(line, "raw "); ok {
			for _, f := range strings.Fields(rest) {
				k, v, _ := strings.Cut(f, "=")
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return c, fmt.Errorf("raw line %q: %w", line, err)
				}
				c.raw[k] = x
			}
		}
	}
	return c, nil
}

// checkMain is the steadiness check. It runs every workload in two sets of
// runs, A and B, interleaved run by run (run i of both sets uses seed+i,
// and the set that goes first alternates), each run a fresh process of
// this binary. Per end-to-end metric it reports each set's sample count,
// median and quartiles, the spread (interquartile distance over the
// median) and the difference between B's median and A's, against the
// metric's bound; for the host times it also reports the same figures
// before the host-slowdown division. It then runs the held-out seed once
// per workload, untraced and traced. It fails if a spread or a set-to-set
// difference exceeds its bound, if any run is incorrect, or if two runs of
// one seed simulate different cycles.
func checkMain(args []string) int {
	fs := flag.NewFlagSet("perfbench check", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per set and workload")
	wls := fs.String("workloads", strings.Join(workloadNames, ","), "comma-separated workloads")
	seed := fs.Uint64("seed", 1, "seed of each set's first run; run i uses seed+i")
	heldOut := fs.Uint64("heldout", 7919, "held-out seed, on which later claims are re-checked")
	specPath := fs.String("benchmark", "BENCHMARK.json", "file with the bounds and run_seconds")
	outPath := fs.String("out", "", "also write the report to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench check: %v\n", err)
		return 1
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench check: %s: %v\n", *specPath, err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench check: %v\n", err)
		return 1
	}
	var report bytes.Buffer
	w := io.MultiWriter(os.Stdout, &report)
	ok := true
	fail := func(format string, a ...any) {
		ok = false
		fmt.Fprintf(w, "FAIL "+format+"\n", a...)
	}
	envs := map[string]map[string]int{} // workload -> env line -> runs
	child := func(wl string, s uint64, traced int) (childRun, bool) {
		args := []string{"--workload", wl, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(sp.RunSeconds), "--trace", fmt.Sprint(traced)}
		fmt.Fprintf(os.Stderr, "%s perfbench %s\n", time.Now().Format("15:04:05"), strings.Join(args, " "))
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		r, perr := parseChild(string(out))
		r.seed = s
		if err != nil || perr != nil || !r.Correct {
			fail("%s seed %d trace %d: exit %v, parse %v, correct %v", wl, s, traced, err, perr, r.Correct)
			return r, false
		}
		if envs[wl] == nil {
			envs[wl] = map[string]int{}
		}
		envs[wl][r.env]++
		declared := sp.EndToEnd
		if traced == 1 {
			declared = sp.PerLayer
		}
		if bad := mismatch(declared, r.Metrics); len(bad) > 0 {
			fail("%s seed %d trace %d: metrics differ from BENCHMARK.json: %v", wl, s, traced, bad)
		}
		if v := r.Metrics["ok_frac"].Value; traced == 0 && v != 1 {
			fail("%s seed %d: ok_frac %v", wl, s, v)
		}
		return r, true
	}

	fmt.Fprintf(w, "perfbench check: %d runs per set, run_seconds %g, seeds %d..%d, held-out seed %d\n",
		*runs, sp.RunSeconds, *seed, *seed+uint64(*runs)-1, *heldOut)
	fmt.Fprintf(w, "env %s\n", environment())
	fmt.Fprintf(w, "started %s\n", time.Now().UTC().Format(time.RFC3339))
	workloads := strings.Split(*wls, ",")
	sets := map[string][2][]childRun{}
	for i := 0; i < *runs; i++ {
		for _, wl := range workloads {
			pair := sets[wl]
			for k := 0; k < 2; k++ {
				set := (i + k) % 2 // alternate which set runs first
				if r, good := child(wl, *seed+uint64(i), 0); good {
					pair[set] = append(pair[set], r)
				}
			}
			sets[wl] = pair
			a, b := pair[0], pair[1]
			if len(a) == len(b) && len(a) > 0 {
				ca, cb := a[len(a)-1].Metrics["sim_cycles"].Value, b[len(b)-1].Metrics["sim_cycles"].Value
				if ca != cb {
					fail("%s seed %d: sim_cycles %v in set A, %v in set B", wl, *seed+uint64(i), ca, cb)
				}
			}
		}
	}

	for _, wl := range workloads {
		fmt.Fprintf(w, "\nworkload %s\n", wl)
		fmt.Fprintf(w, "%-12s %-7s %5s | %-3s %-40s | %-3s %-40s | %8s  %s\n",
			"metric", "unit", "bound", "n", "set A: median [q1, q3] spread", "n", "set B: median [q1, q3] spread", "B vs A", "verdict")
		heldR, _ := child(wl, *heldOut, 0)
		summarizeSets := func(value func(childRun) float64) [2]summary {
			var sum [2]summary
			for set := 0; set < 2; set++ {
				var xs []float64
				for _, r := range sets[wl][set] {
					xs = append(xs, value(r))
				}
				sum[set] = summarize(xs)
			}
			return sum
		}
		for _, m := range sp.EndToEnd {
			sum := summarizeSets(func(r childRun) float64 { return r.Metrics[m.Name].Value })
			diff := (sum[1].median - sum[0].median) / sum[0].median
			verdict := "steady"
			for set := 0; set < 2; set++ {
				switch s := sum[set].spread(); {
				case s > m.Bound:
					verdict = "TOO NOISY"
					fail("%s %s: set %c spread %.4f exceeds bound %g", wl, m.Name, 'A'+set, s, m.Bound)
				case s > m.Bound/3 && verdict == "steady":
					verdict = "spread above a third of the bound"
				}
			}
			if math.Abs(diff) > m.Bound {
				verdict = "SETS DISAGREE"
				fail("%s %s: set medians differ by %.4f, bound %g", wl, m.Name, math.Abs(diff), m.Bound)
			}
			fmt.Fprintf(w, "%-12s %-7s %5.3g | %s | %s | %+8.4f  %s\n", m.Name, m.Unit, m.Bound,
				sum[0], sum[1], diff, verdict)
		}
		// The host times before the host-slowdown division, for comparison;
		// they are not reported metrics and have no verdict.
		for _, name := range []string{"wall_s", "cpu_s", "setup_s"} {
			sum := summarizeSets(func(r childRun) float64 { return r.raw[name] })
			fmt.Fprintf(w, "%-12s %-7s %5s | %s | %s | %+8.4f  not calibrated, not gated\n", name+"(raw)", "s", "",
				sum[0], sum[1], (sum[1].median-sum[0].median)/sum[0].median)
		}
		fmt.Fprintf(w, "runs (seed set: wall_s raw slowdown | setup_s raw):")
		for i := range sets[wl][0] {
			for set, runs := range sets[wl] {
				if i < len(runs) {
					r := runs[i]
					fmt.Fprintf(w, "\n  %d %c: %.4f %.4f %.3f | %.5f %.5f", r.seed, 'A'+set,
						r.Metrics["wall_s"].Value, r.raw["wall_s"], r.raw["slowdown"],
						r.Metrics["setup_s"].Value, r.raw["setup_s"])
				}
			}
		}
		fmt.Fprintln(w)
		for _, env := range sortedKeys(envs[wl]) {
			fmt.Fprintf(w, "env of %d runs: %s\n", envs[wl][env], env)
		}
		var held []string
		for _, m := range sp.EndToEnd {
			held = append(held, fmt.Sprintf("%s=%.6g", m.Name, heldR.Metrics[m.Name].Value))
		}
		fmt.Fprintf(w, "held-out seed %d: %s\n", *heldOut, strings.Join(held, " "))
		if tr, good := child(wl, *heldOut, 1); good {
			names := sortedKeys(tr.Metrics)
			fmt.Fprintf(w, "traced, held-out seed %d (%s):\n", *heldOut, tr.env)
			for _, n := range names {
				fmt.Fprintf(w, "  %-36s %14.6g %s\n", n, tr.Metrics[n].Value, tr.Metrics[n].Unit)
			}
		}
	}
	fmt.Fprintf(w, "\nfinished %s\n", time.Now().UTC().Format(time.RFC3339))
	if ok {
		fmt.Fprintln(w, "check passed: every spread and set-to-set difference is within its bound")
	} else {
		fmt.Fprintln(w, "check FAILED")
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, report.Bytes(), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench check: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// summary is the sample count, median and quartiles of one metric over one
// set of runs.
type summary struct {
	n              int
	median, q1, q3 float64
}

// summarize computes the quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method).
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := median(s)
		return summary{n: n, median: v, q1: v, q3: v}
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{n: n, median: median(s), q1: q(1), q3: q(3)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

func (s summary) String() string {
	return fmt.Sprintf("%-3d %-40s", s.n,
		fmt.Sprintf("%.6g [%.6g, %.6g] %.4f", s.median, s.q1, s.q3, s.spread()))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

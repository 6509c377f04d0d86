// Command perfbench measures the scatter-add simulator end to end and layer
// by layer on three seeded workloads (paper, scaleout, oracle; see
// METRICS.md for what each exercises and why).
//
// Usage, from the repository root (run.sh builds this package first):
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh check [-runs 10] [-workloads paper,scaleout,oracle]
//
// A run generates every input from --seed, then repeats passes over the
// workload's simulations for --seconds; each simulation is one call into
// the apps or multinode entry points, and every result is checked against
// its functional reference. With --trace 0 the last stdout line carries
// the end-to-end metrics (medians over passes); with --trace 1 it carries
// the per-layer metrics of traced passes interleaved with untraced ones,
// and the spans are written as Chrome trace-event JSON beside the binary.
// The check mode runs each workload in two interleaved sets of runs and
// reports every metric's quartiles and set-to-set difference against the
// bounds in BENCHMARK.json.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is taken during package initialization, before main runs.
var processStart = time.Now()

// setupFirst is how many times a run generates its inputs before the first
// pass; setup_s reports the median generation time over these and the
// repeats made in breaks.
const setupFirst = 5

// breakEvery is how much simulation time an untraced pass runs between two
// breaks. In a break the run generates its inputs again, for a tenth of
// the simulation time since the last break, and samples the host speed
// (calib.go) for a fifth of it; neither counts towards the pass. Breaks
// spread both over the run, so that setup_s and the host slowdown see the
// same host conditions as the simulations, also on a workload whose single
// pass takes most of the run.
const breakEvery = time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "check" {
		os.Exit(checkMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 25, "time spent in measured passes")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	res, err := run(*wl, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// pass is the outcome of one pass over a workload's simulations. Its host
// figures cover the simulations and their checks only, not the breaks.
type pass struct {
	wall, cpu time.Duration
	alloc     uint64 // heap bytes allocated
	gcs       uint64 // GC cycles completed
	cycles    uint64 // simulated cycles, summed over the simulations
	sims      int
	failed    int
	counts    counts // exact counters (traced passes only)
	n         int    // pass number, as recorded in the spans
	peakRSS   uint64 // the highest RSS during the pass, in KiB
}

// heapSamples are the heap bytes allocated and GC cycles completed so far,
// which metrics.Read reads without stopping the world.
var heapSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

func heapCounters() (allocs, gcs uint64) {
	metrics.Read(heapSamples)
	return heapSamples[0].Value.Uint64(), heapSamples[1].Value.Uint64()
}

// runPass runs every simulation once. tr and c are nil on untraced passes,
// which call pause with the simulation time since the last break whenever
// it reaches breakEvery, and at the end of the pass. Each simulation starts
// from a collected heap, outside its timing, so that the garbage left by
// the one before it or by a break does not decide when it collects; the
// collections its own allocation triggers count.
func runPass(sims []sim, n int, tr *tracer, c counts, pause func(time.Duration)) (pass, error) {
	// Free memory the runtime still holds from before the pass would
	// otherwise count towards the pass's peak RSS.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return pass{}, err
	}
	tr.at(n, -1)
	root := tr.begin(spanPass)
	p := pass{counts: c, n: n}
	var sinceBreak time.Duration
	for i, s := range sims {
		runtime.GC()
		tr.at(n, i)
		alloc0, gcs0 := heapCounters()
		cpu0 := cpuTime()
		start := time.Now()
		sp := tr.begin(spanSim)
		cycles, err := s.exec(tr, c)
		tr.end(sp)
		wall := time.Since(start)
		p.cpu += cpuTime() - cpu0
		alloc1, gcs1 := heapCounters()
		p.wall += wall
		p.alloc += alloc1 - alloc0
		p.gcs += gcs1 - gcs0
		p.cycles += cycles
		p.sims++
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: result check failed: %v\n", s.label(), err)
		}
		sinceBreak += wall
		if pause != nil && (sinceBreak >= breakEvery || i == len(sims)-1) {
			pause(sinceBreak)
			sinceBreak = 0
		}
	}
	tr.end(root)
	var err error
	p.peakRSS, err = peakRSS()
	return p, err
}

// resetPeakRSS restarts the kernel's record of the process's highest RSS
// (VmHWM) from the current RSS, so that peakRSS reads the peak since.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

// peakRSS reads the process's highest RSS (VmHWM) in KiB.
func peakRSS() (uint64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading the peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, errors.New("reading the peak RSS: no VmHWM in /proc/self/status")
}

// run performs one benchmark run and assembles its result line.
func run(wl string, seed uint64, seconds float64, traced bool) (result, error) {
	mk, err := builder(wl)
	if err != nil {
		return result{}, err
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	// Set-up: generating every input from the seed is what a user waits
	// for between process start and the first simulation. The first
	// generation's inputs are the ones simulated; the repeats, here and in
	// the breaks, give a median that host noise barely moves. The first
	// calibration warms the kernels up and is discarded.
	initTime := time.Since(processStart)
	calibrate()
	slowdowns := sampleHost(0)
	var gens []float64
	var sims []sim
	setup := func() {
		k := len(gens)
		if k > 0 {
			runtime.GC()
		}
		tr.at(-1-k, -1)
		start := time.Now()
		root := tr.begin(spanSetup)
		s := mk(&gen{seed: seed, tr: tr})
		tr.end(root)
		gens = append(gens, time.Since(start).Seconds())
		if k == 0 {
			sims = s
		}
	}
	for len(gens) < setupFirst {
		setup()
	}
	slowdowns = append(slowdowns, sampleHost(0)...)
	pause := func(d time.Duration) {
		start := time.Now()
		setup()
		for time.Since(start) < d/10 {
			setup()
		}
		slowdowns = append(slowdowns, sampleHost(d/5)...)
	}

	// Measured passes: keep going while another pass is expected to end
	// within the budget. A traced run alternates untraced and traced passes
	// so that both see the same host conditions; traced passes take no
	// breaks, so that their spans hold the simulations only.
	var plain, withSpans []pass
	budget := time.Duration(seconds * float64(time.Second))
	begin := time.Now()
	for n := 0; ; n++ {
		var p pass
		var err error
		if traced && n%2 == 1 {
			p, err = runPass(sims, n, tr, counts{}, nil)
			withSpans = append(withSpans, p)
		} else {
			p, err = runPass(sims, n, nil, nil, pause)
			plain = append(plain, p)
		}
		if err != nil {
			return result{}, err
		}
		elapsed := time.Since(begin)
		if (!traced || len(withSpans) > 0) && elapsed+elapsed/time.Duration(n+1) > budget {
			break
		}
	}

	all := append(append([]pass(nil), plain...), withSpans...)
	res := result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range all {
		res.Attempted += p.sims
		res.Failed += p.failed
		if p.cycles != all[0].cycles {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: simulated cycles differ between passes: %d vs %d\n", p.cycles, all[0].cycles)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if err := recordCycles(wl, seed, all[0].cycles); err != nil {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}

	slowdown := median(slowdowns)
	rawSetup := initTime.Seconds() + median(gens)
	e2e := endToEnd(plain, rawSetup/slowdown, slowdown, res)
	fmt.Printf("perfbench workload=%s seed=%d simulations/pass=%d untraced_passes=%d traced_passes=%d set-up_repeats=%d\n",
		wl, seed, len(sims), len(plain), len(withSpans), len(gens))
	fmt.Printf("env %s\n", environment())
	fmt.Printf("host slowdown: median %.4f of %d samples %.3f\n", slowdown, len(slowdowns), slowdowns)
	fmt.Printf("set-up: init %.6f s, raw generations %.4f s\n", initTime.Seconds(), gens)
	for _, p := range plain {
		fmt.Printf("untraced pass: raw wall %.4f s, raw cpu %.4f s, peak RSS %.1f MiB\n",
			p.wall.Seconds(), p.cpu.Seconds(), float64(p.peakRSS)/1024)
	}
	fmt.Printf("raw wall_s=%g cpu_s=%g setup_s=%g slowdown=%g\n",
		e2e["wall_s"].Value*slowdown, e2e["cpu_s"].Value*slowdown, rawSetup, slowdown)
	printMetrics("end_to_end", e2e)
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics = perLayer(tr, plain, withSpans, len(gens), slowdown, e2e["wall_s"].Value)
	printMetrics("per_layer", res.Metrics)
	path := filepath.Join(outDir(), fmt.Sprintf("spans-%s-%d.json", wl, seed))
	if err := tr.writeChrome(path, fmt.Sprintf("perfbench %s seed=%d", wl, seed)); err != nil {
		return result{}, err
	}
	fmt.Printf("spans %d written to %s\n", len(tr.spans), path)
	return res, nil
}

// endToEnd computes the end-to-end metrics from the untraced passes. Host
// times are divided by the run's host slowdown (see calib.go).
func endToEnd(plain []pass, setup, slowdown float64, res result) map[string]metric {
	pick := func(f func(pass) float64) float64 {
		xs := make([]float64, len(plain))
		for i, p := range plain {
			xs[i] = f(p)
		}
		return median(xs)
	}
	return map[string]metric{
		"wall_s":      {pick(func(p pass) float64 { return p.wall.Seconds() }) / slowdown, "s"},
		"cpu_s":       {pick(func(p pass) float64 { return p.cpu.Seconds() }) / slowdown, "s"},
		"setup_s":     {setup, "s"},
		"peak_rss_mb": {pick(func(p pass) float64 { return float64(p.peakRSS) / 1024 }), "MiB"},
		"alloc_mb":    {pick(func(p pass) float64 { return float64(p.alloc) / (1 << 20) }), "MiB"},
		"sim_cycles":  {float64(plain[0].cycles), "cycles"},
		"ok_frac":     {float64(res.Attempted-res.Failed) / float64(res.Attempted), "ratio"},
	}
}

// tracedPass is a traced pass with the self totals of its spans.
type tracedPass struct {
	pass
	self     map[string]layerTotal
	slowdown float64
}

// secs is the summed self time of the named spans, divided by the run's
// host slowdown.
func (tp tracedPass) secs(names ...string) float64 {
	var s float64
	for _, n := range names {
		s += tp.self[n].self.Seconds()
	}
	return s / tp.slowdown
}

// mib is the summed self allocation of the named spans.
func (tp tracedPass) mib(names ...string) float64 {
	var b uint64
	for _, n := range names {
		b += tp.self[n].alloc
	}
	return float64(b) / (1 << 20)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the per-layer metrics: self times and allocation of
// the layer spans and host time per unit of simulated work (medians over
// traced passes, host times divided by the run's host slowdown), and the
// exact counters of one traced pass.
func perLayer(tr *tracer, plain, withSpans []pass, setups int, slowdown, wall float64) map[string]metric {
	traced := make([]tracedPass, len(withSpans))
	for i, p := range withSpans {
		traced[i] = tracedPass{p, tr.selfTotals(p.n), slowdown}
	}
	over := func(f func(tracedPass) float64) float64 {
		xs := make([]float64, len(traced))
		for i, tp := range traced {
			xs[i] = f(tp)
		}
		return median(xs)
	}
	selfSecs := func(names ...string) float64 {
		return over(func(tp tracedPass) float64 { return tp.secs(names...) })
	}
	mib := func(names ...string) float64 {
		return over(func(tp tracedPass) float64 { return tp.mib(names...) })
	}
	nsPer := func(span, work string) float64 {
		return over(func(tp tracedPass) float64 { return ratio(tp.secs(span)*1e9, tp.counts[work]) })
	}
	genSecs := make([]float64, setups)
	for k := range genSecs {
		genSecs[k] = tr.selfTotals(-1 - k)[spanGen].self.Seconds() / slowdown
	}
	gcs := make([]float64, len(plain))
	for i, p := range plain {
		gcs[i] = float64(p.gcs)
	}
	c := withSpans[0].counts
	m := map[string]metric{
		"workload.gen_s":     {median(genSecs), "s"},
		"apps.run_s":         {selfSecs(spanApps), "s"},
		"softscatter.run_s":  {selfSecs(spanSoft), "s"},
		"apps.verify_s":      {selfSecs(spanAppsVerify), "s"},
		"apps.alloc_mb":      {mib(spanApps, spanSoft, spanAppsVerify), "MiB"},
		"multinode.new_s":    {selfSecs(spanMNNew), "s"},
		"multinode.run_s":    {selfSecs(spanMNRun), "s"},
		"multinode.verify_s": {selfSecs(spanMNVerify), "s"},
		"multinode.alloc_mb": {mib(spanMNNew, spanMNRun, spanMNVerify), "MiB"},

		"machine.host_ns_per_cycle":        {nsPer(spanApps, spanApps+".cycles"), "ns/cycle"},
		"multinode.host_ns_per_node_cycle": {nsPer(spanMNRun, "multinode.node_cycles"), "ns/cycle"},
		"network.host_ns_per_hop": {over(func(tp tracedPass) float64 {
			return ratio(tp.counts["network.mesh_run_ns"]/tp.slowdown, tp.counts["network.mesh_hops"])
		}), "ns/hop"},
		"trace.overhead_s":  {over(func(tp tracedPass) float64 { return tp.wall.Seconds()/tp.slowdown - wall }), "s"},
		"host.slowdown":     {slowdown, "ratio"},
		"runtime.gc_cycles": {median(gcs), "count"},

		"saunit.cs_hit_rate":      {ratio(c["saunit.cs_hits"], c["saunit.cs_hits"]+c["saunit.cs_misses"]), "ratio"},
		"dram.row_hit_rate":       {ratio(c["dram.row_hits"], c["dram.row_hits"]+c["dram.row_misses"]), "ratio"},
		"network.delivered_ratio": {ratio(c["network.delivered"], c["network.sent"]), "ratio"},
	}
	for _, name := range []string{
		"machine.ag_stall_cycles", "saunit.fu_busy_cycles", "saunit.stall_full_cycles",
		"cache.stall_cycles", "dram.channel_busy_cycles", "dram.fault_stall_cycles",
		"multinode.node_cycles", "network.backpressure_stall_cycles",
	} {
		m[name] = metric{c[name], "cycles"}
	}
	for _, name := range []string{
		"machine.mem_refs", "machine.fp_ops",
		"saunit.cs_hits", "saunit.cs_misses", "saunit.fault_fu_retries", "saunit.fault_cs_scrubs",
		"cache.hits", "cache.misses", "cache.write_backs",
		"dram.reads", "dram.writes",
		"multinode.sum_backs", "multinode.retransmits", "multinode.dups_dropped", "multinode.nodes_degraded",
		"network.sent", "network.switch_hops", "network.root_packets", "network.combined_in_switch",
		"network.hop_retransmits", "network.fault_drops",
	} {
		m[name] = metric{c[name], "count"}
	}
	return m
}

func printMetrics(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %-36s %16.6g %s\n", kind, n, ms[n].Value, ms[n].Unit)
	}
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// environment describes the host every number was measured on.
func environment() string {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}

// outDir is where runs keep their span files and cycle records: the
// directory of the built binary, inside the checkout's build directory.
func outDir() string {
	exe, err := os.Executable()
	if err != nil {
		return "."
	}
	return filepath.Dir(exe)
}

// recordCycles compares a run's simulated cycles with every earlier run of
// the same binary, workload and seed, and records them on the first run.
func recordCycles(wl string, seed uint64, cycles uint64) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the binary: %w", err)
	}
	f, err := os.Open(exe)
	if err != nil {
		return fmt.Errorf("hashing the binary: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return fmt.Errorf("hashing the binary: %w", err)
	}
	dir := filepath.Join(outDir(), "cycles")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d", hex.EncodeToString(h.Sum(nil))[:16], wl, seed))
	want := fmt.Sprintf("%d\n", cycles)
	prev, err := os.ReadFile(path)
	switch {
	case err == nil && string(prev) != want:
		return fmt.Errorf("simulated cycles %d differ from an earlier run with seed %d: %s", cycles, seed, strings.TrimSpace(string(prev)))
	case err == nil:
		return nil
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(want), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"scatteradd/internal/fault"
)

// quickOpts returns tiny-scale options writing checkpoints into dir
// (Scale 32 keeps exactly one Fig6 input size, so runs still happen).
func quickOpts(dir string) Options {
	return Options{Scale: 32, Jobs: 2, CheckpointDir: dir}
}

// TestCheckpointRoundTrip: a figure computed once is served from its
// snapshot afterward, byte-for-byte.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts(dir)
	t1 := Fig6(o)
	path := filepath.Join(dir, "fig6.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	// Prove the second call is served from disk: plant a sentinel title in
	// the snapshot and watch it come back.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatal(err)
	}
	if cf.Table.String() != t1.String() {
		t.Fatal("snapshot does not round-trip the rendered table")
	}
	cf.Table.Title = "SENTINEL"
	planted, _ := json.Marshal(cf)
	if err := os.WriteFile(path, planted, 0o644); err != nil {
		t.Fatal(err)
	}
	if t2 := Fig6(o); t2.Title != "SENTINEL" {
		t.Fatalf("second call recomputed instead of loading the snapshot (title %q)", t2.Title)
	}
}

// TestCheckpointCorruptAndMismatch: torn snapshots and option changes both
// force a recompute; the recomputed table matches the original.
func TestCheckpointCorruptAndMismatch(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts(dir)
	t1 := Fig6(o)
	path := filepath.Join(dir, "fig6.json")

	// Corrupt JSON (a kill mid-write can at worst leave the old file, but a
	// corrupt one must still be survivable).
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if t2 := Fig6(o); t2.String() != t1.String() {
		t.Fatal("recompute after corruption diverged from the original")
	}
	if _, ok := o.loadCheckpoint(path); !ok {
		t.Fatal("recompute did not rewrite a valid snapshot")
	}

	// A different option fingerprint must not be served the old table.
	o2 := o
	o2.Seed = 99
	if t3 := Fig6(o2); t3.String() == t1.String() {
		t.Fatal("seed change produced an identical table — likely served stale checkpoint")
	}
	if t4 := Fig6(o2); t4.String() == t1.String() {
		t.Fatal("stale checkpoint served after fingerprint change")
	}
}

// TestCheckpointWithAppendices: counter and span appendices survive the JSON
// round trip byte-for-byte (they are part of the rendered output).
func TestCheckpointWithAppendices(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts(dir)
	o.CollectStats = true
	o.CollectSpans = true
	t1 := Fig6(o)
	if !strings.Contains(t1.String(), "counter appendix") {
		t.Fatal("expected a counter appendix in the rendered table")
	}
	t2 := Fig6(o) // served from snapshot
	if t1.String() != t2.String() {
		t.Fatal("appendices did not survive the checkpoint round trip")
	}
}

// TestFaultedFigureDeterministicAcrossJobs: with chaos-rate injection, a
// figure's rendered output is identical for every worker count — the fault
// schedule is a function of (seed, component, event index), not scheduling.
func TestFaultedFigureDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs int) string {
		o := Options{Scale: 256, Jobs: jobs, Faults: fault.DefaultChaos()}
		return Fig13(o).String()
	}
	seq := run(1)
	if par := run(4); par != seq {
		t.Fatal("faulted Fig13 output depends on worker count")
	}
	if unfaulted := Fig13(Options{Scale: 256, Jobs: 1}).String(); unfaulted == seq {
		t.Fatal("chaos-rate faults left Fig13 timings untouched — injection not wired")
	}
}

// TestFingerprintSemantics pins which options participate in the snapshot
// match: anything that changes rendered bytes (scale, seed, fault knobs,
// stepping mode, appendix collection) must invalidate, while the pure
// parallelism knob (Jobs) must not — output is byte-identical for every
// value, so a sequential resume of a parallel sweep still hits its
// snapshots.
func TestFingerprintSemantics(t *testing.T) {
	base := Options{Scale: 8, Seed: 1, Faults: fault.DefaultChaos()}
	fp := base.Fingerprint()

	invalidate := map[string]Options{}
	o := base
	o.Scale = 16
	invalidate["scale"] = o
	o = base
	o.Seed = 2
	invalidate["seed"] = o
	o = base
	o.Legacy = true
	invalidate["legacy"] = o
	o = base
	o.CollectStats = true
	invalidate["stats"] = o
	o = base
	o.Faults.Seed = 0xBAD
	invalidate["fault seed"] = o
	o = base
	o.Faults = base.Faults.Scale(0.5)
	invalidate["fault scale"] = o
	o = base
	o.Faults.DegradeThreshold = 99
	invalidate["degrade threshold"] = o
	for name, opt := range invalidate {
		if opt.Fingerprint() == fp {
			t.Errorf("changed %s did not change the fingerprint", name)
		}
	}

	hit := map[string]Options{}
	o = base
	o.Jobs = 8
	hit["jobs"] = o
	o = base
	o.CheckpointDir = "/elsewhere"
	hit["checkpoint dir"] = o
	o = base
	o.Progress = func(done, total int) {}
	hit["progress hook"] = o
	for name, opt := range hit {
		if opt.Fingerprint() != fp {
			t.Errorf("changed %s must not change the fingerprint", name)
		}
	}
}

// TestCheckpointResumeAcrossJobs drives the fingerprint contract end to
// end: a snapshot taken by a parallel sweep is served to a sequential
// resume, while a changed fault seed forces a recompute.
func TestCheckpointResumeAcrossJobs(t *testing.T) {
	dir := t.TempDir()
	// Scale 512 (Fig13 is heavy; the fingerprint contract is size-blind).
	quick := func(jobs int) Options { return Options{Scale: 512, Jobs: jobs, CheckpointDir: dir} }
	Fig13(quick(4))

	// Plant a sentinel so a snapshot hit is distinguishable from an
	// identical recompute.
	path := filepath.Join(dir, "fig13.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatal(err)
	}
	cf.Table.Title = "SENTINEL"
	planted, _ := json.Marshal(cf)
	if err := os.WriteFile(path, planted, 0o644); err != nil {
		t.Fatal(err)
	}

	if t2 := Fig13(quick(1)); t2.Title != "SENTINEL" {
		t.Fatal("sequential resume recomputed instead of hitting the parallel sweep's snapshot")
	}

	reseeded := quick(1)
	reseeded.Faults = fault.DefaultChaos()
	reseeded.Faults.Seed = 0xFACE
	if t3 := Fig13(reseeded); t3.Title == "SENTINEL" {
		t.Fatal("changed fault seed was served the stale snapshot")
	}
}

// TestFingerprintGolden pins the exact on-disk key of one fixed Options
// value. Checkpoint files and the simulation server's persisted cache index
// store this string, so any change to it — a new key, a renamed key, a
// different encoding — silently orphans every existing snapshot. The
// expected string was produced before Options lost its Shards field (it
// never took part in the key), which is what keeps those snapshots valid.
func TestFingerprintGolden(t *testing.T) {
	o := Options{
		Scale: 8, Jobs: 4, Seed: 7,
		CollectStats: true, CollectSpans: true, SpanRate: 4,
		Legacy: true, Faults: fault.DefaultChaos(),
		Topology: "tree+comb", FanIn: 2,
		CheckpointDir: "/ck",
	}
	const want = `{"fanin":2,"faults":{"cs-corrupt":0.001,"degrade-threshold":64,` +
		`"dram-stall-cycles":300,"dram-stall-rate":0.002,"dram-window-every":50000,` +
		`"dram-window-rate":0.5,"dram-window-span":500,"fu-error":0.001,"max-retries":24,` +
		`"net-drop":0.01,"net-dup":0.005,"retry-backoff-cap":6,"retry-timeout":128,` +
		`"seed":1592654359},"legacy":true,"rate":4,"scale":8,"seed":7,"spans":true,` +
		`"stats":true,"topology":"tree+comb"}`
	if got := o.Fingerprint(); got != want {
		t.Fatalf("fingerprint drifted:\n got %s\nwant %s", got, want)
	}
}

// TestFingerprintCoversFaultConfig is a tripwire for options-struct drift:
// fingerprint enumerates fault.Config's output-affecting fields with stable
// keys, so a new field must be added there (and here) deliberately.
func TestFingerprintCoversFaultConfig(t *testing.T) {
	const knownFields = 14
	if n := reflect.TypeOf(fault.Config{}).NumField(); n != knownFields {
		t.Fatalf("fault.Config has %d fields (expected %d): add the new field to Options.fingerprint with a stable key, then update this count", n, knownFields)
	}
	if n := reflect.TypeOf(Options{}).NumField(); n != 12 {
		t.Fatalf("Options has %d fields: decide whether the new option affects output, wire it into fingerprint if so, then update this count", n)
	}
}

// TestProgressHookCountsRuns: the Progress observer reports every completed
// simulation of a fan-out, ending at done == total, for both the sequential
// and the parallel runner paths — and its presence changes no rendered byte.
func TestProgressHookCountsRuns(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		var mu sync.Mutex
		var calls []int
		total := -1
		o := Options{Scale: 32, Jobs: jobs}
		o.Progress = func(done, n int) {
			mu.Lock()
			calls = append(calls, done)
			total = n
			mu.Unlock()
		}
		withHook := Fig6(o)
		if len(calls) == 0 {
			t.Fatalf("jobs=%d: progress hook never called", jobs)
		}
		if got := len(calls); got != total {
			t.Fatalf("jobs=%d: %d progress calls for a fan-out of %d", jobs, got, total)
		}
		seen := make(map[int]bool, len(calls))
		for _, d := range calls {
			if d < 1 || d > total || seen[d] {
				t.Fatalf("jobs=%d: bad done sequence %v (total %d)", jobs, calls, total)
			}
			seen[d] = true
		}
		plain := Fig6(Options{Scale: 32, Jobs: jobs})
		if withHook.String() != plain.String() {
			t.Fatalf("jobs=%d: progress hook changed rendered output", jobs)
		}
	}
}

// TestWriteFileAtomic: the commit helper replaces the target in one step,
// leaves no temp litter, and refuses an unwritable directory with an error
// instead of a panic.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.json")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("read back %q, %v", data, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp litter left behind: %v", ents)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "x"), []byte("y")); err == nil {
		t.Fatal("write into a missing directory reported success")
	}
}

// TestSaveCheckpointSurvivesBadDir: an unwritable checkpoint location must
// degrade the sweep to uncheckpointed, never panic — and the next load must
// miss cleanly.
func TestSaveCheckpointSurvivesBadDir(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "occupied")
	if err := os.WriteFile(blocker, []byte("file, not dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := Options{Scale: 32, CheckpointDir: filepath.Join(blocker, "nested")}
	path := filepath.Join(o.CheckpointDir, "fig6.json")
	o.saveCheckpoint(path, Table{Title: "x"}) // must not panic
	if _, ok := o.loadCheckpoint(path); ok {
		t.Fatal("load reported a hit under an unwritable dir")
	}
}

// TestFaultedCheckpointKeyedOnFaults: a snapshot taken with injection must
// not be served to a fault-free request, and vice versa.
func TestFaultedCheckpointKeyedOnFaults(t *testing.T) {
	dir := t.TempDir()
	base := quickOpts(dir)
	faulted := base
	faulted.Faults = fault.DefaultChaos()
	tb := Fig13(base)
	tf := Fig13(faulted)
	if tb.String() == tf.String() {
		t.Fatal("faulted and fault-free Fig13 identical — injection not wired")
	}
	if again := Fig13(base); again.String() != tb.String() {
		t.Fatal("fault-free request served the faulted snapshot")
	}
	if again := Fig13(faulted); again.String() != tf.String() {
		t.Fatal("faulted request served the fault-free snapshot")
	}
}

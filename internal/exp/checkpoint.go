package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// This file implements figure-level checkpoint/resume for experiment sweeps
// (Options.CheckpointDir). Each figure's rendered Table is snapshotted to
// <dir>/<name>.json the moment it completes; a later run with matching
// options is served from the snapshot instead of re-simulating. The unit of
// work is one whole figure — every table is assembled deterministically from
// its runs, so "completed" is the only state worth persisting, and a sweep
// killed between figures resumes byte-identically from the survivors.
//
// Writes are atomic (temp file + rename in the same directory), so a kill
// mid-write leaves either the old snapshot or none, never a torn file. A
// snapshot that fails to parse, or whose recorded options fingerprint does
// not match, is treated as absent and recomputed.

// checkpointFile is the on-disk snapshot of one completed figure.
type checkpointFile struct {
	Fingerprint string // options that produced the table (see fingerprint)
	Table       Table
}

// Fingerprint encodes every option that can change a figure's output, as
// canonical JSON: an explicit map with fixed key strings, which encoding/json
// marshals with sorted keys. The keys are part of the on-disk format — they
// deliberately do not follow Go field names, so renaming or reordering an
// Options or fault.Config field can neither spuriously invalidate a snapshot
// nor (worse) silently keep serving one produced under different semantics.
//
// Jobs is deliberately absent: the worker count never changes rendered
// bytes (enforced by TestReportDeterministicAcrossJobs), so a sequential
// resume of a parallel sweep still hits its snapshots. Progress is a pure
// observer and is likewise absent. TestFingerprintGolden pins the exact
// encoding of one fixed Options value.
//
// Beyond checkpoints, the fingerprint is the simulation service's result
// cache and request-coalescing key (internal/server): two requests whose
// specs fingerprint identically are one simulation.
func (o Options) Fingerprint() string {
	flt := o.Faults
	data, err := json.Marshal(map[string]any{
		"scale":    o.Scale,
		"seed":     o.Seed,
		"stats":    o.CollectStats,
		"spans":    o.CollectSpans,
		"rate":     o.spanRate(),
		"legacy":   o.Legacy,
		"topology": o.Topology,
		"fanin":    o.FanIn,
		"faults": map[string]any{
			"seed":              flt.Seed,
			"net-drop":          flt.NetDropRate,
			"net-dup":           flt.NetDupRate,
			"dram-stall-rate":   flt.DRAMStallRate,
			"dram-stall-cycles": flt.DRAMStallCycles,
			"dram-window-every": flt.DRAMWindowEvery,
			"dram-window-span":  flt.DRAMWindowSpan,
			"dram-window-rate":  flt.DRAMWindowRate,
			"cs-corrupt":        flt.CSCorruptRate,
			"fu-error":          flt.FUErrorRate,
			"retry-timeout":     flt.RetryTimeout,
			"retry-backoff-cap": flt.RetryBackoffCap,
			"max-retries":       flt.MaxRetries,
			"degrade-threshold": flt.DegradeThreshold,
		},
	})
	if err != nil {
		panic(fmt.Sprintf("exp: fingerprint marshal: %v", err)) // unreachable: fixed shape
	}
	return string(data)
}

// checkpointed returns the figure's snapshotted table when a valid one
// exists, otherwise generates it with gen and snapshots the result. With no
// CheckpointDir it is exactly gen(o).
func (o Options) checkpointed(name string, gen func(Options) Table) Table {
	if o.CheckpointDir == "" {
		return gen(o)
	}
	path := filepath.Join(o.CheckpointDir, name+".json")
	if t, ok := o.loadCheckpoint(path); ok {
		return t
	}
	t := gen(o)
	o.saveCheckpoint(path, t)
	return t
}

// loadCheckpoint reads and validates one snapshot. Any failure — missing
// file, torn or corrupt JSON, an options mismatch — reports !ok, which means
// "recompute", never an error: checkpoints are an accelerator, not a source
// of truth.
func (o Options) loadCheckpoint(path string) (Table, bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Table{}, false
	}
	var cf checkpointFile
	if err := json.Unmarshal(data, &cf); err != nil {
		return Table{}, false
	}
	if cf.Fingerprint != o.Fingerprint() {
		return Table{}, false
	}
	return cf.Table, true
}

// saveCheckpoint atomically persists one completed figure. Failures are
// deliberately silent beyond a stderr note: a read-only or full disk should
// degrade a sweep to uncheckpointed, not kill it after the work is done.
func (o Options) saveCheckpoint(path string, t Table) {
	data, err := json.MarshalIndent(checkpointFile{Fingerprint: o.Fingerprint(), Table: t}, "", " ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "exp: checkpoint %s: %v\n", path, err)
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "exp: checkpoint %s: %v\n", path, err)
		return
	}
	if err := WriteFileAtomic(path, data); err != nil {
		fmt.Fprintf(os.Stderr, "exp: checkpoint %s: %v\n", path, err)
	}
}

// WriteFileAtomic durably replaces path with data: write to a temp file in
// the same directory, fsync, close, rename. The rename is the commit point —
// a crash at any step leaves either the old file or none, never a torn one —
// and the fsync before it guarantees the renamed file's data actually hit the
// disk (without it, a crash after the rename could publish an empty-but-named
// file). Both the figure checkpoints above and the simulation server's
// persisted result-cache index (internal/server) commit through this helper.
//
// All write/sync/close failures surface with their underlying errors — a full
// disk and a permission problem need different operator responses.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("write temp %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"scatteradd/internal/span"
	"scatteradd/internal/stats"
)

// FuzzLoadCheckpoint writes arbitrary bytes as a figure snapshot and loads
// it with Options.loadCheckpoint. The seeds are valid snapshots with and
// without the counter and span appendices; the committed corpus
// (testdata/fuzz) adds one whose row is longer than its header, one whose
// span report names an unknown stage, a torn one and one written under
// other options. Properties: no input panics; bytes that do not decode, or
// decode under another options fingerprint, mean recompute; a decoded
// snapshot is refused only for a table that fails Validate; and every
// accepted table renders through String and CSV.
func FuzzLoadCheckpoint(f *testing.F) {
	o := Options{Scale: 8}
	for _, t := range fuzzTables() {
		data, err := json.Marshal(checkpointFile{Fingerprint: o.Fingerprint(), Table: t})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	path := filepath.Join(f.TempDir(), "fig.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tab, ok := o.loadCheckpoint(path)
		var cf checkpointFile
		if err := json.Unmarshal(data, &cf); err != nil || cf.Fingerprint != o.Fingerprint() {
			if ok {
				t.Fatalf("served a snapshot that is torn or from other options: %q", data)
			}
			return
		}
		if !ok {
			if cf.Table.Validate() == nil {
				t.Fatalf("refused a snapshot of a valid table: %q", data)
			}
			return
		}
		_ = tab.String()
		_ = tab.CSV()
	})
}

// fuzzTables are the valid tables the fuzz seeds are built from: a plain
// one, with a row shorter than its header, and one with both appendices.
func fuzzTables() []Table {
	plain := Table{Title: "Fig X", Header: []string{"n", "cycles"}, Rows: [][]string{{"1", "10"}, {"2"}}, Notes: []string{"note"}}
	full := plain
	full.Counters = stats.Snapshot{Entries: []stats.Entry{
		{Key: "saunit[0]/cs_hits", Kind: stats.KindCounter, Val: 3},
		{Key: "dram/queue_depth", Kind: stats.KindGauge, Val: 7},
	}}
	full.Spans = []SpanRow{{Label: "run", Report: span.Report{Ops: 2, Rate: 16, Mean: 12.5, P50: 10, P99: 15,
		Stages: []span.StageStat{{Stage: span.StageBankQ, Ops: 2, Cycles: 5}, {Stage: span.StageFU, Ops: 2, Cycles: 20}}}}}
	return []Table{plain, full}
}

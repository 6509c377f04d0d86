package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Timeline is a cycle-interval series of snapshots, recorded by the
// machine's sampler (machine.StartTimeline). Every sample holds the
// cumulative value of each counter at its cycle, and every exporter writes
// those values as sampled.
type Timeline struct {
	Interval uint64
	Samples  []Sample
}

// Sample is one timeline point: the cumulative snapshot at a cycle.
type Sample struct {
	Cycle uint64
	Snap  Snapshot
}

// Record appends a sample.
func (t *Timeline) Record(cycle uint64, s Snapshot) {
	t.Samples = append(t.Samples, Sample{Cycle: cycle, Snap: s})
}

// Write emits the timeline in the named format: "csv" (WriteCSV) or
// "jsonl" (WriteJSONL). It is the single dispatch point for every timeline
// exporter, so format names stay consistent across CLIs.
func (t *Timeline) Write(w io.Writer, format string) error {
	switch format {
	case "csv":
		return t.WriteCSV(w)
	case "jsonl":
		return t.WriteJSONL(w)
	}
	return fmt.Errorf("stats: unknown timeline format %q (want csv or jsonl)", format)
}

// WriteCSV emits the timeline in long form — one row per (cycle, metric) —
// with a cycle,key,value header. Values are cumulative, as sampled.
func (t *Timeline) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"cycle", "key", "value"}); err != nil {
		return err
	}
	for _, s := range t.Samples {
		cyc := strconv.FormatUint(s.Cycle, 10)
		for _, e := range s.Snap.Entries {
			if err := cw.Write([]string{cyc, e.Key, strconv.FormatUint(e.Val, 10)}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSONL emits one JSON object per sample: {"cycle": N, "counters":
// {key: value, ...}}, values cumulative as sampled. Keys are serialized in
// sorted order, so the output is deterministic.
func (t *Timeline) WriteJSONL(w io.Writer) error {
	for _, s := range t.Samples {
		counters := make(map[string]uint64, len(s.Snap.Entries))
		for _, e := range s.Snap.Entries {
			counters[e.Key] = e.Val
		}
		line, err := json.Marshal(struct {
			Cycle    uint64            `json:"cycle"`
			Counters map[string]uint64 `json:"counters"`
		}{Cycle: s.Cycle, Counters: counters})
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}

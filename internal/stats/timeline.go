package stats

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Timeline is a cycle-interval series of snapshots, recorded by the
// machine's sampler (machine.StartTimeline). Samples hold cumulative values;
// Deltas converts them to per-interval activity.
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

// Deltas returns a timeline whose counter values are per-interval increments
// (sample i minus sample i-1); gauges keep their sampled high-water marks.
func (t *Timeline) Deltas() *Timeline {
	out := &Timeline{Interval: t.Interval, Samples: make([]Sample, len(t.Samples))}
	for i, s := range t.Samples {
		if i == 0 {
			out.Samples[i] = s
			continue
		}
		out.Samples[i] = Sample{Cycle: s.Cycle, Snap: s.Snap.Sub(t.Samples[i-1].Snap)}
	}
	return out
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
// with a cycle,key,value header. Values are cumulative as sampled; use
// Deltas first for per-interval activity.
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
// {key: value, ...}}. Keys are serialized in sorted order, so the output is
// deterministic.
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

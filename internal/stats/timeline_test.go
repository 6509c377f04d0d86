package stats

import (
	"encoding/json"
	"strings"
	"testing"
)

// sampleTimeline records two samples of a counter advancing 10 then 25,
// beside a high-water mark of 2.
func sampleTimeline() *Timeline {
	p := newProbe(10, 2)
	counterAndGauge := probeMetrics[:2]
	tl := &Timeline{Interval: 100}
	tl.Record(100, NewSnapshot(Append(nil, "g", counterAndGauge, p)))
	p.n += 15
	tl.Record(200, NewSnapshot(Append(nil, "g", counterAndGauge, p)))
	return tl
}

func TestTimelineDeltas(t *testing.T) {
	d := sampleTimeline().Deltas()
	if len(d.Samples) != 2 || d.Interval != 100 {
		t.Fatalf("deltas shape: %+v", d)
	}
	if v, _ := d.Samples[0].Snap.Get("g/n"); v != 10 {
		t.Fatalf("first delta = %d, want 10 (cumulative)", v)
	}
	if v, _ := d.Samples[1].Snap.Get("g/n"); v != 15 {
		t.Fatalf("second delta = %d, want 15", v)
	}
	if v, _ := d.Samples[1].Snap.Get("g/depth"); v != 2 {
		t.Fatalf("gauge keeps high-water: %d, want 2", v)
	}
}

func TestTimelineWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := sampleTimeline().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if lines[0] != "cycle,key,value" {
		t.Fatalf("header = %q", lines[0])
	}
	// 2 samples x 2 keys.
	if len(lines) != 5 {
		t.Fatalf("got %d lines:\n%s", len(lines), b.String())
	}
	if lines[2] != "100,g/n,10" {
		t.Fatalf("row = %q, want 100,g/n,10", lines[2])
	}
	if lines[4] != "200,g/n,25" {
		t.Fatalf("row = %q, want 200,g/n,25", lines[4])
	}
}

func TestTimelineWriteJSONL(t *testing.T) {
	var b strings.Builder
	if err := sampleTimeline().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var rec struct {
		Cycle    uint64            `json:"cycle"`
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Cycle != 200 || rec.Counters["g/n"] != 25 {
		t.Fatalf("record = %+v", rec)
	}
}

// TestTimelineWrite: the format dispatcher routes "csv" and "jsonl" to
// their writers byte for byte and rejects any other name.
func TestTimelineWrite(t *testing.T) {
	tl := sampleTimeline()
	for format, direct := range map[string]func(*strings.Builder) error{
		"csv":   func(b *strings.Builder) error { return tl.WriteCSV(b) },
		"jsonl": func(b *strings.Builder) error { return tl.WriteJSONL(b) },
	} {
		var got, want strings.Builder
		if err := tl.Write(&got, format); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if err := direct(&want); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() || got.Len() == 0 {
			t.Fatalf("%s: Write emitted\n%s\nwant\n%s", format, got.String(), want.String())
		}
	}
	var b strings.Builder
	err := tl.Write(&b, "xml")
	if err == nil || !strings.Contains(err.Error(), `"xml"`) || b.Len() != 0 {
		t.Fatalf("unknown format: err %v, wrote %q", err, b.String())
	}
}

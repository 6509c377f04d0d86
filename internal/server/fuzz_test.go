package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"scatteradd/internal/exp"
)

// specQuery encodes the non-zero fields of sp as the daemon's GET query.
// Faults is written with strconv, so NaN and the infinities survive (the
// JSON body cannot carry them).
func specQuery(sp Spec) string {
	q := url.Values{}
	set := func(key, v string, nonZero bool) {
		if nonZero {
			q.Set(key, v)
		}
	}
	set("figure", sp.Figure, sp.Figure != "")
	set("format", sp.Format, sp.Format != "")
	set("scale", strconv.Itoa(sp.Scale), sp.Scale != 0)
	set("seed", strconv.FormatUint(sp.Seed, 10), sp.Seed != 0)
	set("span_rate", strconv.Itoa(sp.SpanRate), sp.SpanRate != 0)
	set("stats", "true", sp.Stats)
	set("spans", "true", sp.Spans)
	set("legacy", "true", sp.Legacy)
	set("faults", strconv.FormatFloat(sp.Faults, 'g', -1, 64), sp.Faults != 0)
	set("fault_seed", strconv.FormatUint(sp.FaultSeed, 10), sp.FaultSeed != 0)
	set("topology", sp.Topology, sp.Topology != "")
	set("fan_in", strconv.Itoa(sp.FanIn), sp.FanIn != 0)
	return q.Encode()
}

// FuzzParseSpec feeds a raw query string and a JSON body to the daemon's
// spec parsing, as GET and POST requests, and validates whatever parses
// under the default limits. The corpus is seeded with valid specs, every
// case of TestParseSpecRejections and TestValidateRejections, and the
// non-finite and signed-zero fault scales. Properties: ParseSpec followed
// by Validate never panics, and every accepted Request comes from a faults
// scale within [0, 1], names a figure the server serves, has scale >= 1,
// carries only finite fault rates within [0, 1], and has a topology or
// fan-in only on fig14.
func FuzzParseSpec(f *testing.F) {
	valid := []Spec{
		{Figure: "fig6"},
		{Figure: "table1", Format: "text"},
		{Figure: "fig10", Scale: 8, Seed: 3, Stats: true, Spans: true, SpanRate: 4, Format: "csv"},
		{Figure: "fig13", Scale: 16, Legacy: true, Faults: 0.5, FaultSeed: 9},
		{Figure: "fig14", Scale: 64, Topology: "tree+comb", FanIn: 8, Faults: 1},
		{Figure: "fig14", Scale: 64, Topology: "hypercube"},
	}
	for _, sp := range valid {
		body, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(specQuery(sp), string(body))
	}
	for _, tc := range validateRejections {
		body, err := json.Marshal(tc.sp)
		if err != nil {
			body = nil // NaN has no JSON form; the query still carries it
		}
		f.Add(specQuery(tc.sp), string(body))
	}
	for _, tc := range parseSpecRejections {
		f.Add(tc.query.Encode(), tc.body)
	}
	for _, x := range []string{"NaN", "Inf", "-Inf", "+Inf", "-0", "1e-320", "0x1p-2"} {
		f.Add("figure=fig6&faults="+x, `{"figure":"fig6","faults":`+x+`}`)
	}
	f.Fuzz(func(t *testing.T, query, body string) {
		// The daemon reads r.URL.Query(), which keeps the pairs that parse.
		q, _ := url.ParseQuery(query)
		for _, method := range []string{"GET", "POST"} {
			sp, err := ParseSpec(method, q, strings.NewReader(body))
			if err != nil {
				continue
			}
			req, err := sp.Validate(Limits{})
			if err != nil {
				continue
			}
			if _, ok := lookupFigure(req.Figure); !ok {
				t.Fatalf("%s accepted unknown figure %q", method, req.Figure)
			}
			if req.Opts.Scale < 1 {
				t.Fatalf("%s accepted scale %d", method, req.Opts.Scale)
			}
			if !(sp.Faults >= 0 && sp.Faults <= 1) {
				t.Fatalf("%s accepted faults %g", method, sp.Faults)
			}
			fc := req.Opts.Faults
			for _, r := range []float64{fc.NetDropRate, fc.NetDupRate, fc.DRAMStallRate, fc.DRAMWindowRate, fc.CSCorruptRate, fc.FUErrorRate} {
				if math.IsNaN(r) || r < 0 || r > 1 {
					t.Fatalf("%s accepted fault rate %g from faults=%g: %+v", method, r, sp.Faults, fc)
				}
			}
			if (req.Opts.Topology != "" || req.Opts.FanIn != 0) && req.Figure != "fig14" {
				t.Fatalf("%s accepted topology %q fan_in %d on %s", method, req.Opts.Topology, req.Opts.FanIn, req.Figure)
			}
		}
	})
}

// FuzzLoadIndex writes arbitrary bytes as the daemon's persisted cache
// index and warms a cache from it with resultCache.loadIndex. The seed is
// a saved index of three tables; the committed corpus (testdata/fuzz) adds
// an entry whose row is longer than its header, a torn entry, an entry
// without a key and a header of another version. Properties: no input
// panics; a file whose first line is not the current version header loads
// and skips nothing; otherwise every non-blank entry line is loaded or
// skipped and counted, skipped exactly when it does not decode, has no key
// or holds a table that fails Validate; and every loaded table renders
// through String and CSV.
func FuzzLoadIndex(f *testing.F) {
	dir := f.TempDir()
	src := testCache(8)
	for _, k := range []string{"a", "b", "c"} {
		src.Do(k, func() exp.Table { return tableFor(k) })
	}
	seed := filepath.Join(dir, "seed.ndjson")
	if _, err := src.saveIndex(seed); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	path := filepath.Join(dir, indexFileName)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := testCache(4)
		loaded, skipped := c.loadIndex(path)
		lines := bytes.Split(data, []byte("\n"))
		var hdr indexHeader
		if json.Unmarshal(lines[0], &hdr) != nil || hdr.V != indexVersion {
			if loaded != 0 || skipped != 0 {
				t.Fatalf("loaded %d, skipped %d entries under a bad header %q", loaded, skipped, lines[0])
			}
			return
		}
		wantLoaded, wantSkipped := 0, 0
		for _, line := range lines[1:] {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var e indexEntry
			if json.Unmarshal(line, &e) != nil || e.Key == "" || e.Table.Validate() != nil {
				wantSkipped++
			} else {
				wantLoaded++
			}
		}
		if loaded != wantLoaded || skipped != wantSkipped {
			t.Fatalf("loaded %d, skipped %d; want %d, %d", loaded, skipped, wantLoaded, wantSkipped)
		}
		for _, e := range c.dump() {
			_ = e.table.String()
			_ = e.table.CSV()
		}
	})
}

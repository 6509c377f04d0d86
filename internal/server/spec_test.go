package server

import (
	"math"
	"net/url"
	"strings"
	"testing"

	"scatteradd/internal/exp"
)

// validateRejections are specs Validate must refuse, each with the limits
// it runs under and the field its error must name. FuzzParseSpec seeds its
// corpus with them.
var validateRejections = []struct {
	name string
	sp   Spec
	l    Limits
	want string
}{
	{"unknown figure", Spec{Figure: "fig99"}, Limits{}, "fig99"},
	{"empty figure", Spec{}, Limits{}, "figure"},
	{"negative scale", Spec{Figure: "fig6", Scale: -1}, Limits{}, "scale"},
	{"scale under floor", Spec{Figure: "fig6", Scale: 4}, Limits{MinScale: 8}, "floor"},
	{"negative span rate", Spec{Figure: "fig6", SpanRate: -1}, Limits{}, "span_rate"},
	{"faults over 1", Spec{Figure: "fig6", Faults: 1.5}, Limits{}, "faults"},
	{"negative faults", Spec{Figure: "fig6", Faults: -0.1}, Limits{}, "faults"},
	{"NaN faults", Spec{Figure: "fig6", Faults: math.NaN()}, Limits{}, "faults"},
	{"bad format", Spec{Figure: "fig6", Format: "xml"}, Limits{}, "format"},
	{"bad topology", Spec{Figure: "fig14", Topology: "torus"}, Limits{}, "topology"},
	{"topology off figure", Spec{Figure: "fig6", Topology: "tree"}, Limits{}, "topology"},
	{"fan_in off figure", Spec{Figure: "fig13", FanIn: 4}, Limits{}, "topology"},
	{"fan_in of 1", Spec{Figure: "fig14", FanIn: 1}, Limits{}, "fan_in"},
	{"fan_in over cap", Spec{Figure: "fig14", FanIn: 32}, Limits{MaxFanIn: 8}, "fan_in"},
}

// TestValidateRejections: every malformed spec names its offending field in
// a client error; nothing panics.
func TestValidateRejections(t *testing.T) {
	for _, tc := range validateRejections {
		_, err := tc.sp.Validate(tc.l)
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateDefaults: the zero spec fields resolve to the CLI's defaults.
func TestValidateDefaults(t *testing.T) {
	req := validated(t, Spec{Figure: "fig6"})
	if req.Opts.Scale != 1 || req.Format != "json" {
		t.Fatalf("defaults: %+v / format %q", req.Opts, req.Format)
	}
	if req.Opts.Jobs != 0 {
		t.Fatal("Validate assigned Jobs; that is the server's runtime decision")
	}
	faulted := validated(t, Spec{Figure: "fig6", Faults: 1, FaultSeed: 7})
	if faulted.Opts.Faults.Seed != 7 {
		t.Fatal("fault seed not applied")
	}
	unfaulted := validated(t, Spec{Figure: "fig6", FaultSeed: 7})
	if unfaulted.Opts.Faults != (validated(t, Spec{Figure: "fig6"}).Opts.Faults) {
		t.Fatal("fault_seed without faults>0 must be inert (mirrors the CLI)")
	}
}

// TestValidateTopology: topology and fan_in reach exp.Options on fig14 and
// participate in the cache key (different topologies are different results).
func TestValidateTopology(t *testing.T) {
	req := validated(t, Spec{Figure: "fig14", Scale: 64, Topology: "tree+comb", FanIn: 8})
	if req.Opts.Topology != "tree+comb" || req.Opts.FanIn != 8 {
		t.Fatalf("topology options not threaded: %+v", req.Opts)
	}
	plain := validated(t, Spec{Figure: "fig14", Scale: 64})
	if req.CacheKey() == plain.CacheKey() {
		t.Fatal("topology does not reach the cache key")
	}
}

// TestRenderFormats: "csv" reproduces `scatteradd -csv` byte-for-byte,
// "text" the aligned table, and "json" round-trips the table.
func TestRenderFormats(t *testing.T) {
	tab := exp.Table{
		Title:  "T, with comma",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x,y"}},
		Notes:  []string{"n"},
	}
	csvBody, ctype := Request{Format: "csv"}.Render(tab)
	wantCSV := "# T, with comma\n" + tab.CSV() + "\n"
	if string(csvBody) != wantCSV {
		t.Fatalf("csv body %q, want %q", csvBody, wantCSV)
	}
	if !strings.HasPrefix(ctype, "text/csv") {
		t.Fatalf("csv content type %q", ctype)
	}
	textBody, _ := Request{Format: "text"}.Render(tab)
	if string(textBody) != tab.String() {
		t.Fatalf("text body %q, want %q", textBody, tab.String())
	}
	jsonBody, ctype := Request{Format: "json"}.Render(tab)
	if !strings.HasPrefix(ctype, "application/json") || !strings.Contains(string(jsonBody), `"T, with comma"`) {
		t.Fatalf("json render: %q (%s)", jsonBody, ctype)
	}
}

// TestParseSpecQueryAndBody: GET query parameters and POST JSON produce the
// same spec.
func TestParseSpecQueryAndBody(t *testing.T) {
	q := url.Values{}
	q.Set("figure", "fig13")
	q.Set("scale", "8")
	q.Set("faults", "0.5")
	q.Set("stats", "true")
	q.Set("format", "csv")
	fromQuery, err := ParseSpec("GET", q, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.NewReader(`{"figure":"fig13","scale":8,"faults":0.5,"stats":true,"format":"csv"}`)
	fromBody, err := ParseSpec("POST", nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if fromQuery != fromBody {
		t.Fatalf("query %+v != body %+v", fromQuery, fromBody)
	}
}

// parseSpecRejections are requests ParseSpec must refuse, each with the
// field its error must name. FuzzParseSpec seeds its corpus with them.
var parseSpecRejections = []struct {
	name   string
	method string
	query  url.Values
	body   string
	want   string
}{
	{"typoed query parameter", "GET", url.Values{"figrue": {"fig6"}}, "", "figrue"},
	{"typoed JSON field", "POST", nil, `{"figrue":"fig6"}`, "figrue"},
	{"shards query parameter", "GET", url.Values{"figure": {"fig13"}, "shards": {"4"}}, "", "shards"},
	{"shards JSON field", "POST", nil, `{"figure":"fig13","shards":4}`, "shards"},
	{"non-numeric scale", "GET", url.Values{"scale": {"lots"}}, "", "lots"},
}

// TestParseSpecRejections: unknown fields — typos, and the retired shards
// option — are rejected on both the query and the JSON path with an error
// that names the field, as are malformed values.
func TestParseSpecRejections(t *testing.T) {
	for _, tc := range parseSpecRejections {
		_, err := ParseSpec(tc.method, tc.query, strings.NewReader(tc.body))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestFiguresInventory: the accepted set is the paper's evaluation plus
// table1, sorted for stable error messages.
func TestFiguresInventory(t *testing.T) {
	got := Figures()
	want := []string{"fig10", "fig11", "fig12", "fig13", "fig14", "fig6", "fig7", "fig8", "fig9", "table1"}
	if len(got) != len(want) {
		t.Fatalf("figures %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("figures %v, want %v", got, want)
		}
	}
}

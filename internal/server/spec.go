// Package server is the scatter-add simulation service: a long-lived HTTP
// daemon (cmd/scatteraddd) that accepts workload/figure specs as JSON,
// validates them into exp.Options, runs them on a bounded worker pool, and
// returns the rendered tables — the ROADMAP's "millions of users" direction,
// where the simulator becomes a multi-tenant backend instead of a one-shot
// CLI.
//
// The service layers, outermost first:
//
//   - per-tenant token-bucket quotas keyed by API token (quota.go)
//   - admission control: a bounded queue in front of a bounded pool of
//     simulation workers; overload answers 429 with Retry-After (server.go)
//   - request coalescing and a fingerprint-keyed LRU result cache: two
//     requests whose specs share the checkpoint fingerprint of
//     internal/exp are one simulation (cache.go), in the lineage of
//     in-network combining — identical requests merge before they ever
//     reach the simulator
//   - the simulation itself: the figure registry's generator (exp.Figures)
//     on the validated options
//
// Every response body is a pure function of the spec (timing and cache
// status travel in headers), so cached, coalesced, and freshly computed
// answers are byte-identical — CI holds the server's bytes against the
// scatteradd CLI's for the same options.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"scatteradd/internal/exp"
	"scatteradd/internal/fault"
	"scatteradd/internal/multinode"
)

// Spec is the wire form of one simulation request: which figure to
// regenerate and the options to regenerate it under. The zero value of every
// field means "the CLI's default"; Scale is the only required field a server
// may enforce a floor on (Limits.MinScale) to bound per-request cost.
type Spec struct {
	// Figure names the experiment: "table1" or "fig6" .. "fig14".
	Figure string `json:"figure"`
	// Scale divides dataset sizes, exactly as `scatteradd -scale` (0 = 1 =
	// the paper's full sizes — typically rejected by a server MinScale).
	Scale int `json:"scale,omitempty"`
	// Seed perturbs every workload seed (0 = the paper's fixed seeds).
	Seed uint64 `json:"seed,omitempty"`
	// Stats appends the hardware performance-counter appendix.
	Stats bool `json:"stats,omitempty"`
	// Spans appends the request-lifecycle latency appendix.
	Spans bool `json:"spans,omitempty"`
	// SpanRate samples 1 in N issued operations for Spans (0 = 16).
	SpanRate int `json:"span_rate,omitempty"`
	// Legacy forces per-cycle stepping instead of quiescence fast-forward.
	Legacy bool `json:"legacy,omitempty"`
	// Faults injects the default chaos fault mix scaled by X in [0,1].
	Faults float64 `json:"faults,omitempty"`
	// FaultSeed overrides the fault injector's seed (used only when
	// Faults > 0, mirroring the CLI).
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	// Topology restricts the interconnect scale-out figure (fig14) to one
	// interconnect configuration, named as multinode.ParseTopology names
	// them: flat, flat+comb, hypercube, tree, tree+comb, mesh, or mesh+comb
	// ("" = sweep all). Other figures reject a non-empty value.
	Topology string `json:"topology,omitempty"`
	// FanIn sets the switch fan-in of fig14's tree topologies (0 = 4).
	FanIn int `json:"fan_in,omitempty"`
	// Format selects the response rendering: "json" (default), "text"
	// (Table.String), or "csv" (byte-identical to `scatteradd -csv`).
	// Format is presentation only and does not participate in the
	// result-cache key.
	Format string `json:"format,omitempty"`
}

// Limits bounds what a server accepts; the zero value accepts everything the
// CLI would.
type Limits struct {
	// MinScale rejects specs with Scale below it (larger Scale = smaller
	// datasets = cheaper runs). 0 means 1: even the paper's full sizes.
	MinScale int
	// MaxFanIn caps Spec.FanIn (0 means 16).
	MaxFanIn int
}

func (l Limits) minScale() int {
	if l.MinScale < 1 {
		return 1
	}
	return l.MinScale
}

func (l Limits) maxFanIn() int {
	if l.MaxFanIn < 1 {
		return 16
	}
	return l.MaxFanIn
}

// table1 is the one accepted name outside the figure registry: it renders
// fixed machine parameters, ignores the options, and is dispatched like a
// figure.
var table1 = exp.Figure{Name: "table1", Gen: func(exp.Options) exp.Table { return exp.Table1() }}

// lookupFigure resolves an accepted figure name: table1 or an entry of the
// figure registry.
func lookupFigure(name string) (exp.Figure, bool) {
	if name == table1.Name {
		return table1, true
	}
	return exp.LookupFigure(name)
}

// Figures returns the accepted figure names, sorted (for error messages and
// the landing page).
func Figures() []string {
	out := []string{table1.Name}
	for _, f := range exp.Figures {
		out = append(out, f.Name)
	}
	sort.Strings(out)
	return out
}

// Request is a validated Spec: the resolved generator, the exp.Options it
// runs under, and the response format. Opts.Jobs is deliberately left zero —
// the server assigns per-run parallelism at execution time (it never changes
// output bytes and never reaches the cache key).
type Request struct {
	Figure string
	Format string
	Opts   exp.Options
	gen    func(exp.Options) exp.Table
}

// Validate checks the spec against the server's limits and resolves it into
// a runnable Request. Errors are client errors (HTTP 400): they name the
// offending field and the accepted range.
func (sp Spec) Validate(l Limits) (Request, error) {
	fig, ok := lookupFigure(sp.Figure)
	if !ok {
		return Request{}, fmt.Errorf("figure %q unknown (want one of %s)", sp.Figure, strings.Join(Figures(), ", "))
	}
	scale := sp.Scale
	if scale == 0 {
		scale = 1
	}
	if scale < 1 {
		return Request{}, fmt.Errorf("scale %d invalid (want >= 1)", sp.Scale)
	}
	if scale < l.minScale() {
		return Request{}, fmt.Errorf("scale %d below this server's floor %d (larger scale = smaller datasets)", scale, l.minScale())
	}
	if sp.SpanRate < 0 {
		return Request{}, fmt.Errorf("span_rate %d invalid (want >= 0; 0 = default 16)", sp.SpanRate)
	}
	if !(sp.Faults >= 0 && sp.Faults <= 1) { // also rejects NaN
		return Request{}, fmt.Errorf("faults %g invalid (want 0 .. 1)", sp.Faults)
	}
	if sp.FanIn != 0 && (sp.FanIn < 2 || sp.FanIn > l.maxFanIn()) {
		return Request{}, fmt.Errorf("fan_in %d invalid (want 0 or 2 .. %d)", sp.FanIn, l.maxFanIn())
	}
	if sp.Topology != "" {
		if _, err := multinode.ParseTopology(sp.Topology, sp.FanIn); err != nil {
			return Request{}, err
		}
	}
	if (sp.Topology != "" || sp.FanIn != 0) && !fig.Topology {
		return Request{}, fmt.Errorf("figure %q has no topology axis (topology/fan_in apply to fig14)", sp.Figure)
	}
	format := sp.Format
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "text", "csv":
	default:
		return Request{}, fmt.Errorf("format %q invalid (want json, text, or csv)", sp.Format)
	}
	var fc fault.Config
	if sp.Faults > 0 {
		fc = fault.DefaultChaos().Scale(sp.Faults)
		if sp.FaultSeed != 0 {
			fc.Seed = sp.FaultSeed
		}
	}
	return Request{
		Figure: sp.Figure,
		Format: format,
		Opts: exp.Options{
			Scale:        scale,
			Seed:         sp.Seed,
			CollectStats: sp.Stats,
			CollectSpans: sp.Spans,
			SpanRate:     sp.SpanRate,
			Legacy:       sp.Legacy,
			Faults:       fc,
			Topology:     sp.Topology,
			FanIn:        sp.FanIn,
		},
		gen: fig.Gen,
	}, nil
}

// CacheKey is the request's result-cache and coalescing key: the figure name
// plus the canonical-JSON options fingerprint shared with figure checkpoints
// (internal/exp). Jobs and Format are absent by construction — neither
// changes rendered bytes — so a csv request coalesces with the json request
// for the same figure and options already in flight.
func (r Request) CacheKey() string {
	return r.Figure + "\x00" + r.Opts.Fingerprint()
}

// Render produces the response body and content type for the request's
// format. Bodies are pure functions of (figure, options): "csv" is
// byte-identical to `scatteradd -csv <figure>`, "text" to the CLI's aligned
// table (without the wall-clock line), and "json" is the canonical
// encoding/json form of the table.
func (r Request) Render(t exp.Table) ([]byte, string) {
	switch r.Format {
	case "text":
		return []byte(t.String()), "text/plain; charset=utf-8"
	case "csv":
		return []byte(fmt.Sprintf("# %s\n%s\n", t.Title, t.CSV())), "text/csv; charset=utf-8"
	default:
		data, err := json.Marshal(t)
		if err != nil {
			// Unreachable: Table is plain data with no cycles.
			panic(fmt.Sprintf("server: marshal table %q: %v", t.Title, err))
		}
		return append(data, '\n'), "application/json"
	}
}

// ParseSpec reads a Spec from an HTTP request: query parameters for GET
// (curl-friendly), a JSON body for POST. Unknown JSON fields are rejected —
// a typoed option silently running the default simulation would poison the
// caller's results.
func ParseSpec(method string, query url.Values, body io.Reader) (Spec, error) {
	if method == "GET" {
		return specFromQuery(query)
	}
	var sp Spec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("spec body: %v", err)
	}
	return sp, nil
}

// specFromQuery maps ?figure=fig6&scale=8&... onto a Spec, with the same
// unknown-field strictness as the JSON path.
func specFromQuery(q url.Values) (Spec, error) {
	var sp Spec
	for key, vals := range q {
		v := vals[len(vals)-1]
		var err error
		switch key {
		case "figure":
			sp.Figure = v
		case "format":
			sp.Format = v
		case "scale":
			sp.Scale, err = strconv.Atoi(v)
		case "seed":
			sp.Seed, err = strconv.ParseUint(v, 10, 64)
		case "span_rate":
			sp.SpanRate, err = strconv.Atoi(v)
		case "stats":
			sp.Stats, err = strconv.ParseBool(v)
		case "spans":
			sp.Spans, err = strconv.ParseBool(v)
		case "legacy":
			sp.Legacy, err = strconv.ParseBool(v)
		case "faults":
			sp.Faults, err = strconv.ParseFloat(v, 64)
		case "fault_seed":
			sp.FaultSeed, err = strconv.ParseUint(v, 10, 64)
		case "topology":
			sp.Topology = v
		case "fan_in":
			sp.FanIn, err = strconv.Atoi(v)
		default:
			return Spec{}, fmt.Errorf("unknown query parameter %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("query parameter %s=%q: %v", key, v, err)
		}
	}
	return sp, nil
}

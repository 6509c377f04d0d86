package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"scatteradd/internal/obs"
	"scatteradd/internal/span"
)

// obsServer is testServer plus an enabled observer.
func obsServer(t *testing.T, cfg Config, ocfg obs.Config) (*Server, string) {
	t.Helper()
	cfg.Obs = obs.New(ocfg)
	_, ts := testServer(t, cfg)
	return nil, ts.URL
}

// scrapeMetrics pulls and parses /metrics.
func scrapeMetrics(t *testing.T, base string) *obs.Scrape {
	t.Helper()
	resp, body := get(t, base+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics Content-Type %q, want %q", ct, obs.ContentType)
	}
	s, err := obs.ParseProm([]byte(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	return s
}

// scrapeUntil re-scrapes until the /v1/run requests_total reaches want —
// request accounting lands after the response reaches the client, so an
// immediate scrape can run ahead of it.
func scrapeUntil(t *testing.T, base string, want float64) *obs.Scrape {
	t.Helper()
	var s *obs.Scrape
	for i := 0; i < 50; i++ {
		s = scrapeMetrics(t, base)
		if s.Sum(obs.MetricRequests, map[string]string{"endpoint": "/v1/run"}) >= want {
			return s
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never counted %v /v1/run requests", want)
	return s
}

func TestMetricsEndpoint(t *testing.T) {
	_, base := obsServer(t, Config{Workers: 2}, obs.Config{})

	// miss, then hit, then a second figure (another miss).
	post(t, base+"/v1/run", `{"figure":"fig6","scale":32,"format":"csv"}`)
	post(t, base+"/v1/run", `{"figure":"fig6","scale":32,"format":"csv"}`)
	post(t, base+"/v1/run", `{"figure":"fig6","scale":64,"format":"csv"}`)
	s := scrapeUntil(t, base, 3)

	if problems := s.Lint(); len(problems) != 0 {
		t.Fatalf("live exposition fails lint: %v", problems)
	}
	run := map[string]string{"endpoint": "/v1/run"}
	if got := s.Sum(obs.MetricRequests, run); got != 3 {
		t.Fatalf("requests_total{/v1/run} = %v, want 3", got)
	}
	if got := s.Sum(obs.MetricRequests, map[string]string{"endpoint": "/v1/run", "cache": "hit"}); got != 1 {
		t.Fatalf("hit count = %v, want 1", got)
	}
	if got := s.Sum(obs.MetricRequests, map[string]string{"endpoint": "/v1/run", "cache": "miss"}); got != 2 {
		t.Fatalf("miss count = %v, want 2", got)
	}
	if got := s.Sum(obs.MetricRequests, map[string]string{"endpoint": "/v1/run", "figure": "fig6"}); got != 3 {
		t.Fatalf("figure label = %v, want 3", got)
	}
	if got := s.Sum(obs.MetricDuration+"_count", run); got != 3 {
		t.Fatalf("duration count = %v, want 3", got)
	}
	// The two misses simulated; the hit must not have a run stage.
	if got := s.Sum(obs.MetricStageDuration+"_count", map[string]string{"endpoint": "/v1/run", "stage": "run"}); got != 2 {
		t.Fatalf("run-stage count = %v, want 2 (hits must not simulate)", got)
	}
	// The service counters ride along with prometheus-clean names.
	if v, ok := s.Value("scatteradd_stats_cache_hits_total", nil); !ok || v != 1 {
		t.Fatalf("stats cache hits = %v,%v, want 1", v, ok)
	}
	// Two consecutive scrapes: counters monotonic (the /metrics request
	// itself lands in between, so deltas are fine but never negative).
	s2 := scrapeMetrics(t, base)
	if problems := obs.CheckMonotonic(s, s2); len(problems) != 0 {
		t.Fatalf("counters went backwards across scrapes: %v", problems)
	}
}

func TestXRequestID(t *testing.T) {
	_, base := obsServer(t, Config{Workers: 1}, obs.Config{})

	// A clean inbound id is echoed back.
	req, _ := http.NewRequest("GET", base+"/v1/run?figure=fig6&scale=32&format=csv", nil)
	req.Header.Set("X-Request-Id", "load-test-77")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "load-test-77" {
		t.Fatalf("inbound id not propagated: %q", got)
	}

	// No inbound id: the server mints one.
	resp2, _ := get(t, base+"/healthz")
	if got := resp2.Header.Get("X-Request-Id"); !strings.HasPrefix(got, "r-") {
		t.Fatalf("minted id = %q, want r-<seq>", got)
	}

	// A hostile id is replaced, not echoed.
	req3, _ := http.NewRequest("GET", base+"/healthz", nil)
	req3.Header.Set("X-Request-Id", "evil id with spaces")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if got := resp3.Header.Get("X-Request-Id"); !strings.HasPrefix(got, "r-") {
		t.Fatalf("hostile id echoed: %q", got)
	}
}

func TestSlowzEndpoint(t *testing.T) {
	// Room for the run requests plus the test's own /metrics and slowz
	// traffic — at capacity the ring would (correctly) evict the fast hit.
	_, base := obsServer(t, Config{Workers: 2}, obs.Config{SlowN: 16})
	post(t, base+"/v1/run", `{"figure":"fig6","scale":32,"format":"csv"}`)
	post(t, base+"/v1/run", `{"figure":"fig6","scale":32,"format":"csv"}`)
	scrapeUntil(t, base, 2)

	// Perfetto JSON validates through the span schema checker.
	resp, body := get(t, base+"/debug/slowz")
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/slowz status %d", resp.StatusCode)
	}
	if _, err := span.ValidateTraceJSON([]byte(body)); err != nil {
		t.Fatalf("slowz export fails trace validation: %v\n%s", err, body)
	}
	if !strings.Contains(body, `"run"`) {
		t.Fatalf("slowz export missing run-stage track:\n%s", body)
	}

	// gzip=1 compresses the same artifact.
	respGz, gzBody := get(t, base+"/debug/slowz?gzip=1")
	if ct := respGz.Header.Get("Content-Type"); ct != "application/gzip" {
		t.Fatalf("gzip Content-Type %q", ct)
	}
	zr, err := gzip.NewReader(strings.NewReader(gzBody))
	if err != nil {
		t.Fatalf("slowz gzip output is not gzip: %v", err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if _, err := span.ValidateTraceJSON(plain); err != nil {
		t.Fatalf("gunzipped slowz fails validation: %v", err)
	}

	// format=json returns summaries sorted slowest-first.
	_, jsonBody := get(t, base+"/debug/slowz?format=json")
	var sums []obs.SlowSummary
	if err := json.Unmarshal([]byte(jsonBody), &sums); err != nil {
		t.Fatalf("slowz json: %v\n%s", err, jsonBody)
	}
	// The ring also retains the scrape requests themselves; the two run
	// requests must be among the retained traces, sorted slowest-first.
	runs := 0
	for _, sm := range sums {
		if sm.Endpoint == "/v1/run" {
			runs++
			if sm.Figure != "fig6" {
				t.Fatalf("summary fields: %+v", sm)
			}
		}
	}
	if runs != 2 {
		t.Fatalf("retained %d /v1/run traces, want 2 (all: %+v)", runs, sums)
	}
	for i := 1; i < len(sums); i++ {
		if sums[i].TotalMs > sums[i-1].TotalMs {
			t.Fatal("summaries not sorted slowest-first")
		}
	}
}

// syncBuffer serializes reads against the observer's writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestAccessLogOverHTTP(t *testing.T) {
	var alog syncBuffer
	_, base := obsServer(t, Config{Workers: 1}, obs.Config{AccessLog: &alog})
	post(t, base+"/v1/run", `{"figure":"fig6","scale":32,"format":"csv"}`)
	get(t, base+"/healthz") // not /v1/*: no line
	scrapeUntil(t, base, 1)

	lines := strings.Split(strings.TrimSpace(alog.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("access log lines = %d, want 1:\n%s", len(lines), alog.String())
	}
	var rec obs.AccessRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("access log line not JSON: %v\n%s", err, lines[0])
	}
	if rec.Endpoint != "/v1/run" || rec.Figure != "fig6" || rec.Cache != "miss" ||
		rec.Code != 200 || rec.Outcome != "ok" || rec.Fingerprint == "" {
		t.Fatalf("record: %+v", rec)
	}
	if rec.StageMs["run"] <= 0 {
		t.Fatalf("no run stage in access log: %+v", rec.StageMs)
	}
}

func TestQuotaRejectionTelemetry(t *testing.T) {
	_, base := obsServer(t, Config{Workers: 1, QuotaRPS: 0.1, QuotaBurst: 1}, obs.Config{})
	r1, _ := get(t, base+"/v1/run?figure=fig6&scale=32&format=csv")
	if r1.StatusCode != 200 {
		t.Fatalf("first request status %d", r1.StatusCode)
	}
	r2, _ := get(t, base+"/v1/run?figure=fig6&scale=32&format=csv")
	if r2.StatusCode != 429 {
		t.Fatalf("second request status %d, want 429", r2.StatusCode)
	}
	// Ceiling semantics: never "Retry-After: 0".
	if ra := r2.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want >= 1", ra)
	}
	s := scrapeUntil(t, base, 2)
	if got := s.Sum(obs.MetricRequests, map[string]string{"endpoint": "/v1/run", "class": "4xx"}); got != 1 {
		t.Fatalf("4xx count = %v, want 1", got)
	}
}

func TestCheckScrapeZeroDrift(t *testing.T) {
	_, base := obsServer(t, Config{Workers: 2}, obs.Config{})
	before := scrapeMetrics(t, base)

	// 1 miss + 2 hits, all 2xx, all fig6.
	post(t, base+"/v1/run", `{"figure":"fig6","scale":32,"format":"csv"}`)
	post(t, base+"/v1/run", `{"figure":"fig6","scale":32,"format":"csv"}`)
	post(t, base+"/v1/run", `{"figure":"fig6","scale":32,"format":"csv"}`)
	after := scrapeUntil(t, base, 3)

	rep := LoadReport{
		Sent: 3, OK: 3,
		Cache: map[string]int{"miss": 1, "hit": 2},
	}
	if problems := CheckScrape(before, after, rep); len(problems) != 0 {
		t.Fatalf("zero-drift run flagged: %v", problems)
	}

	// A doctored client count must be caught.
	bad := rep
	bad.Sent, bad.OK = 4, 4
	problems := CheckScrape(before, after, bad)
	if len(problems) == 0 {
		t.Fatal("doctored counts not flagged")
	}

	// Transport errors void the cross-check loudly.
	te := rep
	te.TransportErrors = 1
	if problems := CheckScrape(before, after, te); len(problems) != 1 ||
		!strings.Contains(problems[0], "transport errors") {
		t.Fatalf("transport-error handling: %v", problems)
	}
}

func TestTelemetryDisabledSurface(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1}) // no Obs
	base := ts.URL

	resp, body := post(t, base+"/v1/run", `{"figure":"fig6","scale":32,"format":"csv"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("run status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "" {
		t.Fatalf("disabled server minted X-Request-Id %q", got)
	}

	// /metrics still serves the service counters, with no RED families.
	mresp, mbody := get(t, base+"/metrics")
	if mresp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", mresp.StatusCode)
	}
	s, err := obs.ParseProm([]byte(mbody))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if problems := s.Lint(); len(problems) != 0 {
		t.Fatalf("disabled exposition fails lint: %v", problems)
	}
	if strings.Contains(mbody, obs.MetricRequests) {
		t.Fatal("disabled server rendered RED metrics")
	}
	if _, ok := s.Value("scatteradd_stats_server_requests_total", nil); !ok {
		t.Fatalf("stats families missing:\n%s", mbody)
	}

	// slowz has nothing to serve.
	sresp, _ := get(t, base+"/debug/slowz")
	if sresp.StatusCode != 404 {
		t.Fatalf("/debug/slowz status %d, want 404", sresp.StatusCode)
	}
	_ = body
}

func TestBuildzEndpoint(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	resp, body := get(t, ts.URL+"/buildz")
	if resp.StatusCode != 200 {
		t.Fatalf("/buildz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var b obs.Build
	if err := json.Unmarshal([]byte(body), &b); err != nil {
		t.Fatalf("buildz not JSON: %v\n%s", err, body)
	}
	if b.Service != "scatteraddd" || b.GoVersion == "" || b.OS == "" || b.Arch == "" {
		t.Fatalf("buildz fields: %+v", b)
	}
	if b.Module != "scatteradd" {
		t.Fatalf("module = %q, want scatteradd", b.Module)
	}
}

func TestStreamTelemetry(t *testing.T) {
	_, base := obsServer(t, Config{Workers: 1}, obs.Config{})
	resp, body := post(t, base+"/v1/stream", `{"figure":"fig6","scale":32}`)
	if resp.StatusCode != 200 {
		t.Fatalf("stream status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(body, `"done"`) {
		t.Fatalf("stream did not complete:\n%s", body)
	}
	// The stream endpoint gets its own series and stage histograms.
	var s *obs.Scrape
	deadline := time.Now().Add(2 * time.Second)
	for {
		s = scrapeMetrics(t, base)
		if s.Sum(obs.MetricRequests, map[string]string{"endpoint": "/v1/stream"}) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream request never counted")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.Sum(obs.MetricStageDuration+"_count", map[string]string{"endpoint": "/v1/stream", "stage": "encode"}); got != 1 {
		t.Fatalf("stream encode stage count = %v, want 1", got)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		wait time.Duration
		want int
	}{
		{0, 1},
		{time.Millisecond, 1},
		{999 * time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{90 * time.Second, 90},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.wait); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.wait, got, tc.want)
		}
	}
}

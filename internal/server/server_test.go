package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scatteradd/internal/exp"
)

// testServer builds a Server plus an httptest front end.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(data)
}

// TestHTTPRunMatchesCLIBytes: the acceptance bar for the server-smoke CI job —
// the daemon's csv body for a spec is byte-identical to what `scatteradd -csv`
// prints for the same options, on both the POST and GET paths, and stays
// byte-identical when served from cache.
func TestHTTPRunMatchesCLIBytes(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	cli := exp.Fig6(exp.Options{Scale: 32})
	want := fmt.Sprintf("# %s\n%s\n", cli.Title, cli.CSV())

	resp, body := post(t, ts.URL+"/v1/run", `{"figure":"fig6","scale":32,"format":"csv"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("POST status %d: %s", resp.StatusCode, body)
	}
	if body != want {
		t.Fatalf("POST body diverges from CLI bytes:\n got: %q\nwant: %q", body, want)
	}
	if st := resp.Header.Get("X-Cache"); st != CacheMiss {
		t.Fatalf("first request X-Cache %q (want miss)", st)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Fatalf("Content-Type %q", ct)
	}

	resp, body = get(t, ts.URL+"/v1/run?figure=fig6&scale=32&format=csv")
	if resp.StatusCode != 200 || body != want {
		t.Fatalf("GET path diverges: status %d body %q", resp.StatusCode, body)
	}
	if st := resp.Header.Get("X-Cache"); st != CacheHit {
		t.Fatalf("identical GET X-Cache %q (want hit: format is not in the key)", st)
	}
	if resp.Header.Get("X-Elapsed-Ms") == "" {
		t.Fatal("X-Elapsed-Ms header missing")
	}

	// text and json renderings of the same cached table.
	resp, body = get(t, ts.URL+"/v1/run?figure=fig6&scale=32&format=text")
	if resp.StatusCode != 200 || body != cli.String() {
		t.Fatalf("text body diverges from Table.String: %q", body)
	}
	_ = resp
	var tab exp.Table
	resp, body = get(t, ts.URL+"/v1/run?figure=fig6&scale=32")
	if err := json.Unmarshal([]byte(body), &tab); err != nil || tab.Title != cli.Title {
		t.Fatalf("json body: %v (title %q)", err, tab.Title)
	}
	if st := resp.Header.Get("X-Cache"); st != CacheHit {
		t.Fatalf("json request X-Cache %q (want hit)", st)
	}

	// Every topology name the CLI accepts is accepted here too, with the
	// CLI's bytes: hypercube is one the daemon used to refuse.
	hc := exp.Fig14(exp.Options{Scale: 64, Topology: "hypercube"})
	wantHC := fmt.Sprintf("# %s\n%s\n", hc.Title, hc.CSV())
	resp, body = get(t, ts.URL+"/v1/run?figure=fig14&scale=64&topology=hypercube&format=csv")
	if resp.StatusCode != 200 || body != wantHC {
		t.Fatalf("hypercube fig14 diverges from CLI bytes: status %d body %q, want %q", resp.StatusCode, body, wantHC)
	}
}

// TestHTTPRunClientErrors: malformed specs are 400s that name the problem,
// and never reach a worker.
func TestHTTPRunClientErrors(t *testing.T) {
	s, ts := testServer(t, Config{Workers: 1, Limits: Limits{MinScale: 8}})
	cases := []struct {
		method, url, body, want string
	}{
		{"POST", "/v1/run", `{"figure":"fig99"}`, "unknown"},
		{"POST", "/v1/run", `{"figure":`, "spec body"},
		{"POST", "/v1/run", `{"figure":"fig6","scael":8}`, "scael"},
		{"POST", "/v1/run", `{"figure":"fig6","scale":2}`, "floor"},
		{"GET", "/v1/run?figure=fig6&scale=banana", "", "banana"},
		{"GET", "/v1/run?figure=fig6&bogus=1", "", "bogus"},
		{"GET", "/v1/run?figure=fig6&scale=8&faults=NaN", "", "faults"},
		{"POST", "/v1/run", `{"figure":"fig13","scale":8,"shards":4}`, "shards"},
		{"GET", "/v1/run?figure=fig13&scale=8&shards=4", "", "shards"},
	}
	for _, tc := range cases {
		var resp *http.Response
		var body string
		if tc.method == "GET" {
			resp, body = get(t, ts.URL+tc.url)
		} else {
			resp, body = post(t, ts.URL+tc.url, tc.body)
		}
		if resp.StatusCode != 400 {
			t.Errorf("%s %s: status %d (want 400)", tc.method, tc.url, resp.StatusCode)
		}
		if !strings.Contains(body, tc.want) {
			t.Errorf("%s %s: body %q does not mention %q", tc.method, tc.url, body, tc.want)
		}
	}
	snap := s.Snapshot()
	if v, _ := snap.Get("server/responses_4xx"); v != uint64(len(cases)) {
		t.Fatalf("responses_4xx %d (want %d)", v, len(cases))
	}
	if v, _ := snap.Get("server/running"); v != 0 {
		t.Fatal("a rejected spec reached a worker")
	}
}

// TestAdmissionControl: with 1 worker and no waiting room, a second
// concurrent request is answered 429 with Retry-After; releasing the worker
// re-admits.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{Workers: 1, Queue: -1})
	release, ok := s.admit(context.Background(), httptest.NewRecorder(), "a")
	if !ok {
		t.Fatal("first request not admitted on an idle server")
	}
	rec := httptest.NewRecorder()
	if _, ok := s.admit(context.Background(), rec, "b"); ok {
		t.Fatal("second request admitted past Workers+Queue")
	}
	if rec.Code != 429 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("overload answer: %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if s.st.RejectedBusy != 1 {
		t.Fatalf("rejected_busy %d (want 1)", s.st.RejectedBusy)
	}
	release()
	release2, ok := s.admit(context.Background(), httptest.NewRecorder(), "b")
	if !ok {
		t.Fatal("request not admitted after the worker freed")
	}
	release2()
}

// TestAdmissionQueueAndCancel: one request may wait in the queue (no
// response written), a second waiter overflows to 429, and a queued client
// that disconnects is dropped silently without consuming the worker.
func TestAdmissionQueueAndCancel(t *testing.T) {
	s := New(Config{Workers: 1, Queue: 1})
	release, ok := s.admit(context.Background(), httptest.NewRecorder(), "a")
	if !ok {
		t.Fatal("first request not admitted")
	}

	ctx, cancel := context.WithCancel(context.Background())
	queuedRec := httptest.NewRecorder()
	queuedDone := make(chan bool)
	go func() {
		_, ok := s.admit(ctx, queuedRec, "b")
		queuedDone <- ok
	}()
	waitQueued(t, s, 1)

	rec := httptest.NewRecorder()
	if _, ok := s.admit(context.Background(), rec, "c"); ok || rec.Code != 429 {
		t.Fatalf("overflow past the queue: admitted=%v code=%d", ok, rec.Code)
	}

	cancel()
	if ok := <-queuedDone; ok {
		t.Fatal("canceled request reported admitted")
	}
	if queuedRec.Body.Len() != 0 {
		t.Fatalf("canceled request got a response: %q", queuedRec.Body.String())
	}
	waitQueued(t, s, 0)
	release()
	// The queue slot freed by the cancellation is usable again.
	r2, ok := s.admit(context.Background(), httptest.NewRecorder(), "d")
	if !ok {
		t.Fatal("request not admitted after cancel + release")
	}
	r2()
}

// waitQueued polls until the server's queued count reaches n.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		s.mu.Lock()
		q := s.queued
		s.mu.Unlock()
		if q == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queued count never reached %d", n)
}

// waitRunning polls until the server's running count reaches n.
func waitRunning(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		s.mu.Lock()
		r := s.running
		s.mu.Unlock()
		if r == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("running count never reached %d", n)
}

// TestQuotaOverHTTP: per-tenant token buckets answer 429 through the full
// HTTP path, keyed by the API token header; other tenants are untouched.
func TestQuotaOverHTTP(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2, QuotaRPS: 0.001, QuotaBurst: 1})
	do := func(token string) *http.Response {
		req, _ := http.NewRequest("GET", ts.URL+"/v1/run?figure=table1&format=text", nil)
		if token != "" {
			req.Header.Set("X-API-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := do("alice"); resp.StatusCode != 200 {
		t.Fatalf("alice's first request: %d", resp.StatusCode)
	}
	resp := do("alice")
	if resp.StatusCode != 429 {
		t.Fatalf("alice's second request: %d (want 429: burst 1 spent)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After")
	}
	if resp := do("bob"); resp.StatusCode != 200 {
		t.Fatalf("bob throttled by alice's spending: %d", resp.StatusCode)
	}
	if resp := do(""); resp.StatusCode != 200 {
		t.Fatalf("first anonymous request: %d", resp.StatusCode)
	}
}

// TestDrainGraceful: the tentpole's shutdown contract, end to end — Drain
// refuses new work (healthz and /v1/run flip to 503 + X-Draining), the
// in-flight request finishes with a 200 (zero dropped), the cache index is
// persisted, and a restarted server warms from it.
func TestDrainGraceful(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, Config{Workers: 2, CacheDir: dir})

	// Hold a leader inside the computation for fig6/scale=32's cache key, so
	// the HTTP request below coalesces onto it and stays in flight until we
	// release it.
	key := validated(t, Spec{Figure: "fig6", Scale: 32}).CacheKey()
	started := make(chan struct{})
	releaseLeader := make(chan struct{})
	go s.cache.Do(key, func() exp.Table {
		close(started)
		<-releaseLeader
		return tableFor("slow")
	})
	<-started

	type result struct {
		code  int
		body  string
		cache string
	}
	inflightDone := make(chan result)
	go func() {
		resp, body := get(t, ts.URL+"/v1/run?figure=fig6&scale=32&format=text")
		inflightDone <- result{resp.StatusCode, body, resp.Header.Get("X-Cache")}
	}()
	waitRunning(t, s, 1)

	drainDone := make(chan error)
	go func() { drainDone <- s.Drain(context.Background()) }()
	waitDraining(t, ts.URL)

	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != 503 || resp.Header.Get("X-Draining") != "1" {
		t.Fatalf("healthz while draining: %d, X-Draining %q", resp.StatusCode, resp.Header.Get("X-Draining"))
	}
	if resp, _ := get(t, ts.URL+"/v1/run?figure=table1"); resp.StatusCode != 503 || resp.Header.Get("X-Draining") != "1" {
		t.Fatal("new request accepted during drain")
	}
	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned (%v) with a request still in flight", err)
	case <-time.After(20 * time.Millisecond):
	}

	close(releaseLeader)
	got := <-inflightDone
	if got.code != 200 || got.cache != CacheCoalesced {
		t.Fatalf("in-flight request during drain: %d / %q (want 200, coalesced — zero dropped)", got.code, got.cache)
	}
	if got.body != tableFor("slow").String() {
		t.Fatalf("in-flight body %q", got.body)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Second Drain is a no-op.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}

	// The persisted index warms a fresh server: the same spec is a cache hit
	// before its first simulation.
	s2, ts2 := testServer(t, Config{Workers: 2, CacheDir: dir})
	_ = s2
	resp, body := get(t, ts2.URL+"/v1/run?figure=fig6&scale=32&format=text")
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != CacheHit {
		t.Fatalf("restarted server: %d, X-Cache %q (want warm hit)", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if body != tableFor("slow").String() {
		t.Fatal("restarted server served different bytes than the persisted entry")
	}
}

// waitDraining polls healthz until the drain flag is visible.
func waitDraining(t *testing.T, base string) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == 503 {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("healthz never flipped to draining")
}

// TestDrainDeadline: a drain whose context expires reports the error instead
// of hanging forever on stuck work.
func TestDrainDeadline(t *testing.T) {
	s := New(Config{Workers: 1})
	if !s.enter(httptest.NewRecorder()) {
		t.Fatal("enter refused on an idle server")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil with a request still in flight")
	}
	s.exit()
}

// TestStreamEvents: the NDJSON lifecycle — accepted, monotonic progress
// while the simulation fans out, the table header, every row, then done with
// the cache status; a second identical stream has no progress (nothing is
// simulated) and reports the hit.
func TestStreamEvents(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 2})
	stream := func() []map[string]any {
		resp, body := post(t, ts.URL+"/v1/stream", `{"figure":"fig6","scale":32}`)
		if resp.StatusCode != 200 {
			t.Fatalf("stream status %d: %s", resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("stream Content-Type %q", ct)
		}
		var events []map[string]any
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			var ev map[string]any
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			events = append(events, ev)
		}
		return events
	}

	events := stream()
	if events[0]["event"] != "accepted" || events[0]["figure"] != "fig6" {
		t.Fatalf("first event %v", events[0])
	}
	var progress, rows int
	var tableAt, doneAt = -1, -1
	lastDone := 0
	for i, ev := range events[1:] {
		switch ev["event"] {
		case "progress":
			if tableAt >= 0 {
				t.Fatal("progress event after the table was emitted")
			}
			done, total := int(ev["done"].(float64)), int(ev["total"].(float64))
			if done <= lastDone || done > total {
				t.Fatalf("progress not monotonic: done %d after %d (total %d)", done, lastDone, total)
			}
			lastDone = done
			progress++
		case "table":
			tableAt = i
		case "row":
			rows++
		case "done":
			doneAt = i
			if ev["cache"] != CacheMiss {
				t.Fatalf("fresh stream cache status %v", ev["cache"])
			}
			if int(ev["rows"].(float64)) != rows {
				t.Fatalf("done reports %v rows, saw %d row events", ev["rows"], rows)
			}
		default:
			t.Fatalf("unexpected event %v", ev)
		}
	}
	if progress == 0 || tableAt < 0 || doneAt != len(events)-2 || rows == 0 {
		t.Fatalf("stream shape: %d progress, table@%d, done@%d, %d rows", progress, tableAt, doneAt, rows)
	}

	// Cached repeat: no simulation, so no progress events.
	events = stream()
	for _, ev := range events {
		if ev["event"] == "progress" {
			t.Fatal("cached stream emitted progress (nothing was simulated)")
		}
		if ev["event"] == "done" && ev["cache"] != CacheHit {
			t.Fatalf("cached stream status %v (want hit)", ev["cache"])
		}
	}
}

// TestHealthzAndStatsz: liveness and the counter surface.
func TestHealthzAndStatsz(t *testing.T) {
	_, ts := testServer(t, Config{Workers: 1})
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 || body != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	get(t, ts.URL+"/v1/run?figure=table1&format=text")

	_, body = get(t, ts.URL+"/statsz")
	var vals map[string]uint64
	if err := json.Unmarshal([]byte(body), &vals); err != nil {
		t.Fatalf("statsz json: %v", err)
	}
	if vals["server/requests"] < 2 {
		t.Fatalf("server/requests %d (want >= 2)", vals["server/requests"])
	}
	if _, ok := vals["cache/misses"]; !ok {
		t.Fatal("statsz missing the cache group")
	}
	if _, ok := vals["quota/rejected"]; !ok {
		t.Fatal("statsz missing the quota group")
	}
	_, text := get(t, ts.URL+"/statsz?format=text")
	if !strings.Contains(text, "server/requests") {
		t.Fatalf("statsz text rendering: %q", text)
	}
}

package server

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"scatteradd/internal/exp"
	"scatteradd/internal/obs"
	"scatteradd/internal/stats"
)

// Config sizes one simulation server. The zero value is usable: one worker
// per CPU, a 64-deep queue, a 256-entry cache, no quotas, no persistence.
type Config struct {
	// Workers bounds concurrently running simulations (0 = NumCPU).
	Workers int
	// Queue bounds requests waiting for a worker beyond the running ones;
	// a request arriving past Workers+Queue is answered 429 with
	// Retry-After (0 = 64, negative = no waiting room).
	Queue int
	// RunJobs is exp.Options.Jobs for each request — the figure's
	// simulations that run concurrently, multiplying with Workers (0 = 1:
	// throughput over per-request latency).
	RunJobs int
	// CacheEntries bounds the LRU result cache (0 = 256, negative =
	// disabled; in-flight coalescing stays on regardless).
	CacheEntries int
	// CacheDir, when non-empty, persists the result cache across restarts:
	// Drain writes <dir>/cache-index.ndjson and New warms the LRU from it.
	CacheDir string
	// QuotaRPS and QuotaBurst are the per-tenant token-bucket rate and
	// capacity (QuotaRPS <= 0 disables quotas).
	QuotaRPS   float64
	QuotaBurst int
	// Limits bounds accepted specs (scale floor, fan-in cap).
	Limits Limits
	// Obs, when non-nil, enables service telemetry: RED metrics on /metrics,
	// per-request stage tracing with slow-trace capture on /debug/slowz, and
	// (when the observer is built with an AccessLog) NDJSON access logging.
	// Nil disables all of it at the cost of one branch per hook.
	Obs *obs.Observer
	// Now overrides the clock for tests (nil = time.Now).
	Now func() time.Time
}

// Server is the scatter-add simulation service. Create with New, mount
// Handler on an http.Server, and call Drain before exit.
type Server struct {
	cfg   Config
	cache *resultCache
	quota *quotas

	mu       sync.Mutex // guards draining, queued/running, and st
	draining bool
	queued   int
	running  int
	inflight sync.WaitGroup
	sem      chan struct{} // one slot per simulation worker
	st       serverStats
}

// serverStats counts the requests the server answered and refused.
type serverStats struct {
	Requests         uint64
	Responses2xx     uint64
	Responses4xx     uint64
	Responses5xx     uint64
	RejectedBusy     uint64 // 429s from admission control
	RejectedDraining uint64 // 503s once Drain began
	Streams          uint64 // NDJSON streams opened
	QueuedMax        uint64 // high-water mark of requests waiting for a worker
	RunningMax       uint64 // high-water mark of running simulations
}

// serverMetrics is the snapshot descriptor of the server group.
var serverMetrics = []stats.Metric[Server]{
	stats.Count("requests", func(s *Server) uint64 { return s.st.Requests }),
	stats.Count("responses_2xx", func(s *Server) uint64 { return s.st.Responses2xx }),
	stats.Count("responses_4xx", func(s *Server) uint64 { return s.st.Responses4xx }),
	stats.Count("responses_5xx", func(s *Server) uint64 { return s.st.Responses5xx }),
	stats.Count("rejected_busy", func(s *Server) uint64 { return s.st.RejectedBusy }),
	stats.Count("rejected_draining", func(s *Server) uint64 { return s.st.RejectedDraining }),
	stats.Count("streams", func(s *Server) uint64 { return s.st.Streams }),
	stats.HighWater("queued", func(s *Server) uint64 { return s.st.QueuedMax }),
	stats.HighWater("running", func(s *Server) uint64 { return s.st.RunningMax }),
}

// New builds a Server and, with CacheDir set, warms its result cache from
// the persisted index of the previous run.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.NumCPU()
	}
	switch {
	case cfg.Queue == 0:
		cfg.Queue = 64
	case cfg.Queue < 0:
		cfg.Queue = 0
	}
	switch {
	case cfg.CacheEntries == 0:
		cfg.CacheEntries = 256
	case cfg.CacheEntries < 0:
		cfg.CacheEntries = 0
	}
	if cfg.RunJobs <= 0 {
		cfg.RunJobs = 1
	}
	s := &Server{
		cfg:   cfg,
		cache: newResultCache(cfg.CacheEntries),
		quota: newQuotas(cfg.QuotaRPS, cfg.QuotaBurst, cfg.Now),
		sem:   make(chan struct{}, cfg.Workers),
	}
	if cfg.CacheDir != "" {
		if loaded, _ := s.cache.loadIndex(s.indexPath()); loaded > 0 {
			fmt.Fprintf(os.Stderr, "server: warmed result cache with %d persisted entries\n", loaded)
		}
	}
	return s
}

func (s *Server) indexPath() string { return filepath.Join(s.cfg.CacheDir, indexFileName) }

// Handler returns the service's HTTP surface:
//
//	POST /v1/run     JSON spec -> rendered table (json | text | csv)
//	GET  /v1/run     ?figure=fig6&scale=8&format=csv -> same
//	POST /v1/stream  JSON spec -> NDJSON: accepted, progress*, table, row*, done
//	GET  /healthz      "ok" (503 "draining" once Drain begins)
//	GET  /statsz       server + cache + quota counters (json | ?format=text)
//	GET  /metrics      Prometheus text exposition (stats + RED metrics)
//	GET  /buildz       binary identity: version, Go runtime, VCS stamp
//	GET  /debug/slowz  slowest-N request traces (Perfetto JSON | ?format=json)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/run", s.counted("/v1/run", s.handleRun))
	mux.Handle("/v1/stream", s.counted("/v1/stream", s.handleStream))
	mux.Handle("/healthz", s.counted("/healthz", s.handleHealthz))
	mux.Handle("/statsz", s.counted("/statsz", s.handleStatsz))
	mux.Handle("/metrics", s.counted("/metrics", s.handleMetrics))
	mux.Handle("/buildz", s.counted("/buildz", obs.BuildHandler("scatteraddd")))
	mux.Handle("/debug/slowz", s.counted("/debug/slowz", s.handleSlowz))
	return mux
}

// Drain gracefully shuts the service down: new work is refused (healthz
// flips to 503 so load balancers stop routing here), every in-flight request
// — queued or running — finishes normally, and the result cache is flushed
// to the persisted index. It returns once quiescent, or with ctx's error if
// the deadline passes first (in-flight work keeps its workers either way).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("drain: in-flight requests outlived the deadline: %w", ctx.Err())
	}
	return s.flushCache()
}

// flushCache persists the result cache (when configured) and logs the
// cache's lifetime effectiveness — the drain sequence's final act.
func (s *Server) flushCache() error {
	line := func() string {
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		return fmt.Sprintf("hits=%d misses=%d coalesced=%d evictions=%d",
			s.cache.st.Hits, s.cache.st.Misses, s.cache.st.Coalesced, s.cache.st.Evictions)
	}
	if s.cfg.CacheDir == "" {
		fmt.Fprintf(os.Stderr, "server: drained; cache %s (not persisted: no -cache-dir)\n", line())
		return nil
	}
	n, err := s.cache.saveIndex(s.indexPath())
	if err != nil {
		return fmt.Errorf("drain: persist cache index: %w", err)
	}
	fmt.Fprintf(os.Stderr, "server: drained; cache %s; %d entries persisted to %s\n", line(), n, s.indexPath())
	return nil
}

// Snapshot returns the service's counters (server, cache, quota groups),
// taking every component's lock in a fixed order so the read is race-free.
func (s *Server) Snapshot() stats.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	s.quota.mu.Lock()
	defer s.quota.mu.Unlock()
	es := stats.Append(nil, "server", serverMetrics, s)
	es = stats.Append(es, "cache", cacheMetrics, s.cache)
	es = stats.Append(es, "quota", quotaMetrics, s.quota)
	return stats.NewSnapshot(es)
}

// statusRecorder captures the response code for the per-class counters and
// forwards Flush for the NDJSON stream.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if fl, ok := r.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// counted wraps a handler with request/response-class accounting and, when
// telemetry is on, the request's obs lifecycle: a propagated (or minted)
// X-Request-Id echoed on the response, a stage-tracing handle in the request
// context, and the Finish that folds the request into counters, histograms,
// the slow-trace ring, and the access log. With a nil observer every obs call
// is a nil-receiver no-op — zero allocations added.
func (s *Server) counted(endpoint string, h func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.cfg.Obs.Begin(endpoint, r.Header.Get("X-Request-Id"))
		if tr != nil {
			w.Header().Set("X-Request-Id", tr.ID())
			r = r.WithContext(obs.NewContext(r.Context(), tr))
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		s.mu.Lock()
		s.st.Requests++
		switch {
		case rec.code >= 500:
			s.st.Responses5xx++
		case rec.code >= 400:
			s.st.Responses4xx++
		default:
			s.st.Responses2xx++
		}
		s.mu.Unlock()
		tr.Finish(rec.code)
	})
}

// enter registers a request with the drain accounting, or answers 503 when
// the server is draining. Every accepted request must exit().
func (s *Server) enter(w http.ResponseWriter) bool {
	s.mu.Lock()
	if s.draining {
		s.st.RejectedDraining++
		s.mu.Unlock()
		w.Header().Set("X-Draining", "1")
		w.Header().Set("Retry-After", "1")
		http.Error(w, "draining: not accepting new requests", http.StatusServiceUnavailable)
		return false
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	return true
}

func (s *Server) exit() { s.inflight.Done() }

// tenantOf extracts the quota tenant from the API token header (or the
// Authorization bearer token); requests without one share "anonymous".
func tenantOf(r *http.Request) string {
	if tok := r.Header.Get("X-API-Token"); tok != "" {
		return tok
	}
	if auth := r.Header.Get("Authorization"); len(auth) > 7 && auth[:7] == "Bearer " {
		return auth[7:]
	}
	return "anonymous"
}

// admit passes the request through quota and admission control, blocking in
// the bounded queue until a simulation worker frees up. It reports whether
// the request may run; when it may, release must be called after the
// simulation. Rejections are answered on w (429 with Retry-After); a client
// that disconnects while queued is dropped silently.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, tenant string) (release func(), ok bool) {
	tr := obs.FromContext(ctx)
	quotaStart := tr.Now()
	allowed, wait := s.quota.allow(tenant)
	tr.Stage(obs.StageQuota, quotaStart)
	if !allowed {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
		http.Error(w, fmt.Sprintf("quota exhausted for tenant; retry in %s", wait.Round(time.Millisecond)), http.StatusTooManyRequests)
		return nil, false
	}
	s.mu.Lock()
	// Admission bound: Workers requests may run and Queue more may wait;
	// anything beyond that is load the server would only sit on.
	if s.queued+s.running >= s.cfg.Workers+s.cfg.Queue {
		s.st.RejectedBusy++
		// Each queued request is roughly one simulation of backlog per worker.
		retry := 1 + s.queued/s.cfg.Workers
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		http.Error(w, "overloaded: admission queue full", http.StatusTooManyRequests)
		return nil, false
	}
	s.queued++
	s.st.QueuedMax = max(s.st.QueuedMax, uint64(s.queued))
	s.mu.Unlock()

	queueStart := tr.Now()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.mu.Lock()
		s.queued--
		s.st.QueuedMax = max(s.st.QueuedMax, uint64(s.queued))
		s.mu.Unlock()
		tr.Stage(obs.StageQueue, queueStart)
		return nil, false
	}
	tr.Stage(obs.StageQueue, queueStart)
	s.mu.Lock()
	s.queued--
	s.running++
	s.st.QueuedMax = max(s.st.QueuedMax, uint64(s.queued))
	s.st.RunningMax = max(s.st.RunningMax, uint64(s.running))
	s.mu.Unlock()
	return func() {
		<-s.sem
		s.mu.Lock()
		s.running--
		s.st.RunningMax = max(s.st.RunningMax, uint64(s.running))
		s.mu.Unlock()
	}, true
}

// run executes (or coalesces, or serves from cache) one validated request.
// The simulation itself is attributed to the run stage of the request that
// actually computes it (cache.Do runs compute on the leader's goroutine, so
// tr is always the leader's handle); hits and coalesced followers keep a
// zero run stage — nothing was simulated on their behalf by themselves.
func (s *Server) run(req Request, tr *obs.Req, progress func(done, total int)) (exp.Table, string, error) {
	opts := req.Opts
	opts.Jobs = s.cfg.RunJobs
	opts.Progress = progress
	return s.cache.Do(req.CacheKey(), func() exp.Table {
		runStart := tr.Now()
		defer func() { tr.Stage(obs.StageRun, runStart) }()
		return req.gen(opts)
	})
}

// handleRun serves one spec as a complete rendered table.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if !s.enter(w) {
		return
	}
	defer s.exit()
	sp, err := ParseSpec(r.Method, r.URL.Query(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := sp.Validate(s.cfg.Limits)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tr := obs.FromContext(r.Context())
	if tr != nil {
		tr.SetRequest(req.Figure, tenantOf(r))
		tr.SetFingerprint(req.Opts.Fingerprint())
	}
	release, ok := s.admit(r.Context(), w, tenantOf(r))
	if !ok {
		return
	}
	start := time.Now()
	cacheStart := tr.Now()
	table, status, err := s.run(req, tr, nil)
	// Cache residency is Do's elapsed time minus the simulation this request
	// ran itself, keeping the stages disjoint so their sums reconcile.
	tr.StageExcluding(obs.StageCache, cacheStart, obs.StageRun)
	tr.SetCache(status)
	release()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	encodeStart := tr.Now()
	body, ctype := req.Render(table)
	// Timing and cache status travel in headers only: the body is a pure
	// function of the spec, byte-identical whether computed, coalesced, or
	// cached.
	w.Header().Set("Content-Type", ctype)
	w.Header().Set("X-Cache", status)
	w.Header().Set("X-Elapsed-Ms", strconv.FormatInt(time.Since(start).Milliseconds(), 10))
	w.Write(body)
	tr.Stage(obs.StageEncode, encodeStart)
}

// Stream events, one JSON object per NDJSON line.
type (
	evAccepted struct {
		Event  string `json:"event"` // "accepted"
		Figure string `json:"figure"`
	}
	evProgress struct {
		Event string `json:"event"` // "progress"
		Done  int    `json:"done"`
		Total int    `json:"total"`
	}
	evTable struct {
		Event  string   `json:"event"` // "table"
		Title  string   `json:"title"`
		Header []string `json:"header"`
	}
	evRow struct {
		Event string   `json:"event"` // "row"
		Index int      `json:"index"`
		Cells []string `json:"cells"`
	}
	evDone struct {
		Event string `json:"event"` // "done"
		Rows  int    `json:"rows"`
		Cache string `json:"cache"`
	}
	evError struct {
		Event string `json:"event"` // "error"
		Error string `json:"error"`
	}
)

// handleStream serves one spec as NDJSON: an accepted event, live progress
// events while this request's simulation fans out (none when the result is
// cached or coalesced — nothing is simulated then), the table header, one
// event per row, and a done event carrying the cache status. Unlike /v1/run
// the stream is not byte-stable across cache states — progress is inherently
// a property of the computation, not the result.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	if !s.enter(w) {
		return
	}
	defer s.exit()
	sp, err := ParseSpec(r.Method, r.URL.Query(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req, err := sp.Validate(s.cfg.Limits)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tr := obs.FromContext(r.Context())
	if tr != nil {
		tr.SetRequest(req.Figure, tenantOf(r))
		tr.SetFingerprint(req.Opts.Fingerprint())
	}
	release, ok := s.admit(r.Context(), w, tenantOf(r))
	if !ok {
		return
	}
	defer release()
	s.mu.Lock()
	s.st.Streams++
	s.mu.Unlock()

	w.Header().Set("Content-Type", "application/x-ndjson")
	var wmu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(v any) {
		wmu.Lock()
		defer wmu.Unlock()
		enc.Encode(v)
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
	}
	emit(evAccepted{Event: "accepted", Figure: req.Figure})
	// Progress calls arrive on simulation worker goroutines; emit's mutex
	// serializes them with the row writes below.
	cacheStart := tr.Now()
	table, status, err := s.run(req, tr, func(done, total int) {
		emit(evProgress{Event: "progress", Done: done, Total: total})
	})
	tr.StageExcluding(obs.StageCache, cacheStart, obs.StageRun)
	tr.SetCache(status)
	if err != nil {
		emit(evError{Event: "error", Error: err.Error()})
		return
	}
	encodeStart := tr.Now()
	emit(evTable{Event: "table", Title: table.Title, Header: table.Header})
	for i, row := range table.Rows {
		emit(evRow{Event: "row", Index: i, Cells: row})
	}
	emit(evDone{Event: "done", Rows: len(table.Rows), Cache: status})
	tr.Stage(obs.StageEncode, encodeStart)
}

// handleHealthz reports liveness; Drain flips it to 503 so load balancers
// stop routing before in-flight work finishes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		w.Header().Set("X-Draining", "1")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleStatsz renders the server/cache/quota counter groups: JSON (a
// key-sorted object) by default, the internal/stats text table with
// ?format=text.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	snap := s.Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, snap.Format(""))
		return
	}
	vals := make(map[string]uint64, snap.Len())
	for _, e := range snap.Entries {
		vals[e.Key] = e.Val
	}
	w.Header().Set("Content-Type", "application/json")
	data, _ := json.MarshalIndent(vals, "", " ")
	w.Write(append(data, '\n'))
}

// handleMetrics serves the Prometheus text exposition: the service's
// counters (server/cache/quota groups) plus, with telemetry enabled, the RED
// metrics and stage histograms.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	obs.WriteMetrics(w, s.cfg.Obs, s.Snapshot())
}

// handleSlowz exports the slowest-N retained request traces. The default is
// Perfetto/Chrome trace-event JSON (the same artifact `scatteradd -spans`
// produces — drop it on ui.perfetto.dev); ?gzip=1 compresses it for
// artifact-sized transfers, and ?format=json returns compact summaries.
func (s *Server) handleSlowz(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Obs == nil {
		http.Error(w, "telemetry disabled: no slow traces retained (run without -telemetry=false)", http.StatusNotFound)
		return
	}
	traces := s.cfg.Obs.SlowTraces()
	if r.URL.Query().Get("format") == "json" {
		out := make([]obs.SlowSummary, len(traces))
		for i, t := range traces {
			out[i] = t.Summary()
		}
		w.Header().Set("Content-Type", "application/json")
		data, _ := json.MarshalIndent(out, "", " ")
		w.Write(append(data, '\n'))
		return
	}
	if r.URL.Query().Get("gzip") == "1" {
		w.Header().Set("Content-Type", "application/gzip")
		gz := gzip.NewWriter(w)
		obs.WriteSlowPerfetto(gz, traces)
		gz.Close()
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteSlowPerfetto(w, traces)
}

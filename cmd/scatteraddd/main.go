// Command scatteraddd is the scatter-add simulation daemon: the scatteradd
// CLI's figures as a long-lived multi-tenant HTTP service (internal/server).
//
//	scatteraddd -addr :8080 -workers 4 -queue 64 -cache 256 &
//	curl -s localhost:8080/v1/run -d '{"figure":"fig6","scale":8,"format":"text"}'
//
// Response bodies are byte-identical to the CLI's output for the same
// options ("csv" matches `scatteradd -csv`), whether computed fresh, served
// from the fingerprint-keyed result cache, or coalesced onto an identical
// in-flight request. Overload answers 429 with Retry-After; SIGTERM drains
// gracefully — stop accepting, finish every in-flight request, persist the
// result-cache index (with -cache-dir), then exit 0.
//
// Telemetry (on by default, -telemetry=false turns it off entirely):
//
//	GET /metrics            Prometheus text exposition: service counters +
//	                        per-endpoint RED metrics with stage histograms
//	GET /debug/slowz        slowest -slow-traces request traces as Perfetto
//	                        JSON (?gzip=1 compressed, ?format=json summaries)
//	GET /buildz             binary identity (version, Go runtime, VCS stamp)
//
// -access-log FILE writes one NDJSON line per /v1/* request (id, tenant,
// figure, fingerprint, stage timings, cache status, outcome); "-" logs to
// stderr. Every response carries X-Request-Id (propagated from the request
// when present) for correlating access-log lines with client-side traces.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"scatteradd/internal/obs"
	"scatteradd/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent simulation workers (0 = NumCPU)")
	queue := flag.Int("queue", 64, "admission queue depth beyond the workers (0 = no waiting room)")
	runJobs := flag.Int("run-jobs", 1, "concurrent simulations within one request (exp -jobs)")
	cache := flag.Int("cache", 256, "result-cache entries (0 = disabled; identical in-flight requests still coalesce)")
	cacheDir := flag.String("cache-dir", "", "persist the result-cache index here across restarts (optional)")
	quotaRPS := flag.Float64("quota-rps", 0, "per-tenant request rate (0 = quotas off)")
	quotaBurst := flag.Int("quota-burst", 10, "per-tenant token-bucket burst")
	minScale := flag.Int("min-scale", 1, "reject specs with scale below this (larger scale = smaller datasets)")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "maximum time to wait for in-flight requests on shutdown")
	telemetry := flag.Bool("telemetry", true, "RED metrics on /metrics, request tracing, /debug/slowz slow-trace capture")
	slowTraces := flag.Int("slow-traces", 32, "slowest request traces retained for /debug/slowz (0 = none)")
	accessLog := flag.String("access-log", "", "NDJSON access log file, one line per /v1/* request (\"-\" = stderr; implies -telemetry)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "scatteraddd: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}

	observer, alogClose, err := buildObserver(*telemetry, *slowTraces, *accessLog)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scatteraddd: %v\n", err)
		os.Exit(1)
	}
	if alogClose != nil {
		defer alogClose()
	}

	// The flag's 0 means "cache off"; Config's 0 means "default size".
	cacheEntries := *cache
	if cacheEntries <= 0 {
		cacheEntries = -1
	}
	queueDepth := *queue
	if queueDepth <= 0 {
		queueDepth = -1
	}
	srv := server.New(server.Config{
		Workers:      *workers,
		Queue:        queueDepth,
		RunJobs:      *runJobs,
		CacheEntries: cacheEntries,
		CacheDir:     *cacheDir,
		QuotaRPS:     *quotaRPS,
		QuotaBurst:   *quotaBurst,
		Limits:       server.Limits{MinScale: *minScale},
		Obs:          observer,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scatteraddd: %v\n", err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "scatteraddd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "scatteraddd: serve: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining again

	// Drain sequence: refuse new work (healthz flips to 503), let every
	// in-flight request finish, flush the cache index — then close the
	// listener and idle connections.
	fmt.Fprintln(os.Stderr, "scatteraddd: signal received; draining")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "scatteraddd: %v\n", err)
		os.Exit(1)
	}
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "scatteraddd: shutdown: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "scatteraddd: drained; exiting")
}

// buildObserver assembles the telemetry layer from the flags: nil (all hooks
// free) when disabled, otherwise an observer sized by -slow-traces with the
// access log opened if requested. A non-empty -access-log implies telemetry
// even with -telemetry=false — asking for the log is asking for the tracing
// that fills it. The returned close func (nil when no file was opened) flushes
// the log file on exit.
func buildObserver(telemetry bool, slowTraces int, accessLog string) (*obs.Observer, func() error, error) {
	if !telemetry && accessLog == "" {
		return nil, nil, nil
	}
	cfg := obs.Config{SlowN: slowTraces}
	if slowTraces <= 0 {
		cfg.SlowN = -1
	}
	var closeFn func() error
	switch accessLog {
	case "":
	case "-":
		cfg.AccessLog = io.Writer(os.Stderr)
	default:
		f, err := os.OpenFile(accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("-access-log: %w", err)
		}
		cfg.AccessLog = f
		closeFn = f.Close
	}
	return obs.New(cfg), closeFn, nil
}

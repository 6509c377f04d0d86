package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"scatteradd/internal/stats"
)

// Prometheus text exposition (version 0.0.4) rendering. Everything here is
// deterministic: families render in a fixed order, series within a family
// sort by label string, and label sets render key-sorted — two scrapes of an
// idle server are byte-identical.

// ContentType is the exposition format's content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Metric name constants shared with the scrape cross-check (internal/server
// CheckScrape) and CI's promlint step.
const (
	MetricRequests      = "scatteradd_http_requests_total"
	MetricInflight      = "scatteradd_http_inflight_requests"
	MetricSlowTraces    = "scatteradd_http_slow_traces"
	MetricDuration      = "scatteradd_http_request_duration_seconds"
	MetricStageDuration = "scatteradd_http_stage_duration_seconds"
	statsPrefix         = "scatteradd_stats_"
)

// WriteMetrics renders the full exposition: the observer's RED metrics
// (skipped when o is nil — a telemetry-disabled server still exposes its
// counters) followed by every entry of the internal/stats snapshot as a
// scatteradd_stats_* metric.
func WriteMetrics(w io.Writer, o *Observer, snap stats.Snapshot) error {
	var b strings.Builder
	if o != nil {
		o.writeRED(&b)
	}
	writeStats(&b, snap)
	_, err := io.WriteString(w, b.String())
	return err
}

// writeRED renders the request counters, gauges, and stage histograms.
func (o *Observer) writeRED(b *strings.Builder) {
	o.mu.Lock()
	defer o.mu.Unlock()

	fmt.Fprintf(b, "# HELP %s Requests completed, by endpoint, status class, figure, and cache state.\n", MetricRequests)
	fmt.Fprintf(b, "# TYPE %s counter\n", MetricRequests)
	lines := make([]string, 0, len(o.requests))
	for k, v := range o.requests {
		labels := renderLabels([][2]string{
			{"cache", k.cache}, {"class", k.class}, {"endpoint", k.endpoint}, {"figure", k.figure},
		})
		lines = append(lines, fmt.Sprintf("%s%s %d\n", MetricRequests, labels, v))
	}
	sort.Strings(lines)
	for _, l := range lines {
		b.WriteString(l)
	}

	fmt.Fprintf(b, "# HELP %s Requests currently being served.\n", MetricInflight)
	fmt.Fprintf(b, "# TYPE %s gauge\n", MetricInflight)
	fmt.Fprintf(b, "%s %d\n", MetricInflight, o.inflight)

	fmt.Fprintf(b, "# HELP %s Slow-request traces retained for /debug/slowz.\n", MetricSlowTraces)
	fmt.Fprintf(b, "# TYPE %s gauge\n", MetricSlowTraces)
	fmt.Fprintf(b, "%s %d\n", MetricSlowTraces, len(o.slow.traces))

	fmt.Fprintf(b, "# HELP %s Total request duration by endpoint.\n", MetricDuration)
	fmt.Fprintf(b, "# TYPE %s histogram\n", MetricDuration)
	endpoints := make([]string, 0, len(o.duration))
	for ep := range o.duration {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		writeHist(b, MetricDuration, [][2]string{{"endpoint", ep}}, o.duration[ep])
	}

	fmt.Fprintf(b, "# HELP %s Request duration decomposed by serving-pipeline stage (quota wait, admission-queue wait, cache residency, simulation, encode).\n", MetricStageDuration)
	fmt.Fprintf(b, "# TYPE %s histogram\n", MetricStageDuration)
	sks := make([]stageKey, 0, len(o.stages))
	for sk := range o.stages {
		sks = append(sks, sk)
	}
	sort.Slice(sks, func(i, j int) bool {
		if sks[i].endpoint != sks[j].endpoint {
			return sks[i].endpoint < sks[j].endpoint
		}
		return sks[i].stage < sks[j].stage
	})
	for _, sk := range sks {
		writeHist(b, MetricStageDuration,
			[][2]string{{"endpoint", sk.endpoint}, {"stage", sk.stage.String()}}, o.stages[sk])
	}
}

// writeHist renders one histogram's cumulative buckets, sum, and count.
func writeHist(b *strings.Builder, name string, labels [][2]string, h *hist) {
	var cum uint64
	for i, bound := range DurationBuckets {
		cum += h.buckets[i]
		le := append(append([][2]string{}, labels...), [2]string{"le", formatFloat(bound)})
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(le), cum)
	}
	inf := append(append([][2]string{}, labels...), [2]string{"le", "+Inf"})
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, renderLabels(inf), h.count)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, renderLabels(labels), formatFloat(h.sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, renderLabels(labels), h.count)
}

// writeStats maps an internal/stats snapshot onto Prometheus families: one
// single-sample family per entry, counters suffixed _total for name hygiene,
// gauges exported as their high-water marks (that is what Snapshot carries).
func writeStats(b *strings.Builder, snap stats.Snapshot) {
	for _, e := range snap.Entries {
		name := statsPrefix + sanitizeName(e.Key)
		switch e.Kind {
		case stats.KindCounter:
			name += "_total"
			fmt.Fprintf(b, "# HELP %s internal/stats counter %s\n", name, e.Key)
			fmt.Fprintf(b, "# TYPE %s counter\n", name)
		default:
			fmt.Fprintf(b, "# HELP %s internal/stats gauge %s (high-water mark)\n", name, e.Key)
			fmt.Fprintf(b, "# TYPE %s gauge\n", name)
		}
		fmt.Fprintf(b, "%s %d\n", name, e.Val)
	}
}

// sanitizeName maps a stats key ("cache[3]/hits.b0") onto Prometheus name
// characters: anything outside [a-zA-Z0-9_] becomes '_', runs collapse, and
// leading/trailing '_' are trimmed.
func sanitizeName(key string) string {
	var b strings.Builder
	lastUnderscore := true // trims a leading '_'
	for i := 0; i < len(key); i++ {
		c := key[i]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if ok {
			b.WriteByte(c)
			lastUnderscore = false
		} else if !lastUnderscore {
			b.WriteByte('_')
			lastUnderscore = true
		}
	}
	return strings.TrimSuffix(b.String(), "_")
}

// renderLabels renders a label set (already in the desired order) as
// {k="v",...}, escaping values; an empty set renders as nothing.
func renderLabels(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatFloat renders a float the shortest way that round-trips.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

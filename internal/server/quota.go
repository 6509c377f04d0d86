package server

import (
	"math"
	"sync"
	"time"

	"scatteradd/internal/stats"
)

// quotas enforces per-tenant request rates with token buckets: each tenant
// (identified by API token header, "anonymous" without one) owns a bucket of
// burst tokens refilling at rate per second; a request spends one token or is
// rejected with the time until the next token accrues (Retry-After).
//
// Buckets are lazily created and lazily pruned: once the map exceeds
// maxTenants, any bucket that has been idle long enough to refill completely
// is dropped — its state is indistinguishable from a fresh bucket, so
// forgetting it changes nothing.
type quotas struct {
	mu      sync.Mutex
	rate    float64 // tokens per second; <= 0 disables quotas entirely
	burst   float64
	now     func() time.Time
	buckets map[string]*bucket

	rejected   uint64 // requests refused for want of a token
	tenantsMax uint64 // high-water mark of tracked tenants
}

// quotaMetrics is the snapshot descriptor of the quota group.
var quotaMetrics = []stats.Metric[quotas]{
	stats.Count("rejected", func(q *quotas) uint64 { return q.rejected }),
	stats.HighWater("tenants", func(q *quotas) uint64 { return q.tenantsMax }),
}

// maxTenants bounds the bucket map before pruning kicks in.
const maxTenants = 4096

type bucket struct {
	tokens float64
	last   time.Time
}

// newQuotas builds the quota layer. rate <= 0 admits everything; burst < 1
// is clamped to 1 (a tenant must be able to make at least one request).
func newQuotas(rate float64, burst int, now func() time.Time) *quotas {
	if burst < 1 {
		burst = 1
	}
	if now == nil {
		now = time.Now
	}
	return &quotas{
		rate:    rate,
		burst:   float64(burst),
		now:     now,
		buckets: make(map[string]*bucket),
	}
}

// allow spends one token from tenant's bucket. When the bucket is empty it
// reports false and how long until one token accrues.
func (q *quotas) allow(tenant string) (bool, time.Duration) {
	if q.rate <= 0 {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b, ok := q.buckets[tenant]
	if !ok {
		if len(q.buckets) >= maxTenants {
			q.pruneLocked(now)
		}
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
		q.tenantsMax = max(q.tenantsMax, uint64(len(q.buckets)))
	}
	b.tokens = math.Min(q.burst, b.tokens+now.Sub(b.last).Seconds()*q.rate)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	q.rejected++
	wait := time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
	return false, wait
}

// retryAfterSeconds converts a token-accrual wait into a Retry-After header
// value, rounding UP to whole seconds with a floor of 1: truncation would
// emit "Retry-After: 0" for sub-second waits, which well-behaved clients
// read as "retry immediately" — a recipe for a retry storm against the very
// bucket that just rejected them.
func retryAfterSeconds(wait time.Duration) int {
	secs := int(math.Ceil(wait.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// pruneLocked drops buckets idle long enough to have refilled to burst —
// equivalent to fresh buckets, so nothing observable changes. Caller holds
// mu.
func (q *quotas) pruneLocked(now time.Time) {
	idle := time.Duration(q.burst / q.rate * float64(time.Second))
	for tenant, b := range q.buckets {
		if now.Sub(b.last) >= idle {
			delete(q.buckets, tenant)
		}
	}
}

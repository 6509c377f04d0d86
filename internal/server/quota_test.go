package server

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is an injectable time source for deterministic bucket tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func testQuotas(rate float64, burst int, c *fakeClock) *quotas {
	return newQuotas(rate, burst, c.now)
}

// TestQuotaBurstThenRefill: a tenant spends its burst immediately, is then
// rejected with an accurate Retry-After, and regains exactly one token per
// 1/rate seconds.
func TestQuotaBurstThenRefill(t *testing.T) {
	clock := newFakeClock()
	q := testQuotas(2, 3, clock) // 2 tokens/sec, burst 3
	for i := 0; i < 3; i++ {
		if ok, _ := q.allow("alice"); !ok {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	ok, wait := q.allow("alice")
	if ok {
		t.Fatal("request beyond burst admitted")
	}
	if wait != 500*time.Millisecond {
		t.Fatalf("Retry-After %v (want 500ms: one token at 2/sec)", wait)
	}
	if q.rejected != 1 {
		t.Fatalf("rejected counter %d (want 1)", q.rejected)
	}
	clock.advance(500 * time.Millisecond)
	if ok, _ := q.allow("alice"); !ok {
		t.Fatal("token did not refill after the advertised wait")
	}
	if ok, _ := q.allow("alice"); ok {
		t.Fatal("refill granted more than the accrued single token")
	}
}

// TestQuotaTenantsIsolated: one tenant exhausting its bucket does not touch
// another's; anonymous callers share one bucket.
func TestQuotaTenantsIsolated(t *testing.T) {
	clock := newFakeClock()
	q := testQuotas(1, 1, clock)
	if ok, _ := q.allow("alice"); !ok {
		t.Fatal("alice's first request rejected")
	}
	if ok, _ := q.allow("alice"); ok {
		t.Fatal("alice's second request admitted past burst 1")
	}
	if ok, _ := q.allow("bob"); !ok {
		t.Fatal("bob rejected because of alice's spending")
	}
	if ok, _ := q.allow("anonymous"); !ok {
		t.Fatal("first anonymous request rejected")
	}
	if ok, _ := q.allow("anonymous"); ok {
		t.Fatal("anonymous callers do not share a bucket")
	}
	if q.tenantsMax != 3 {
		t.Fatalf("tenants gauge %d (want 3)", q.tenantsMax)
	}
}

// TestQuotaRefillCapsAtBurst: idle time never accrues more than burst tokens.
func TestQuotaRefillCapsAtBurst(t *testing.T) {
	clock := newFakeClock()
	q := testQuotas(10, 2, clock)
	q.allow("alice") // create the bucket, spend one
	clock.advance(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := q.allow("alice"); !ok {
			t.Fatalf("request %d within burst after idle rejected", i)
		}
	}
	if ok, _ := q.allow("alice"); ok {
		t.Fatal("an hour idle accrued more than burst tokens")
	}
}

// TestQuotaDisabled: rate <= 0 admits everything and allocates nothing.
func TestQuotaDisabled(t *testing.T) {
	q := testQuotas(0, 1, newFakeClock())
	for i := 0; i < 100; i++ {
		if ok, wait := q.allow("anyone"); !ok || wait != 0 {
			t.Fatal("disabled quotas rejected a request")
		}
	}
	if len(q.buckets) != 0 {
		t.Fatal("disabled quotas allocated buckets")
	}
}

// TestQuotaPruneBoundsTenantMap: beyond maxTenants, buckets idle long enough
// to have fully refilled are dropped — and a pruned tenant's behavior is
// indistinguishable from a fresh one's.
func TestQuotaPruneBoundsTenantMap(t *testing.T) {
	clock := newFakeClock()
	q := testQuotas(1, 2, clock)
	for i := 0; i < maxTenants; i++ {
		q.allow(fmt.Sprintf("tenant-%d", i))
	}
	if len(q.buckets) != maxTenants {
		t.Fatalf("%d buckets before prune (want %d)", len(q.buckets), maxTenants)
	}
	// Everyone has been idle >= burst/rate (2s), so the next newcomer prunes
	// the lot.
	clock.advance(3 * time.Second)
	q.allow("newcomer")
	if len(q.buckets) != 1 {
		t.Fatalf("%d buckets after prune (want 1: just the newcomer)", len(q.buckets))
	}
	// A pruned tenant comes back with a full burst, same as a fresh one.
	if ok, _ := q.allow("tenant-0"); !ok {
		t.Fatal("pruned tenant rejected on return")
	}
}

package scatteradd

import (
	"os"
	"strings"
	"testing"

	"scatteradd/internal/apisurface"
	"scatteradd/internal/fault"
)

// TestAPISurfaceGolden pins the package's exported symbols to API.txt: any
// addition, removal, or signature change fails until the golden is
// regenerated (go run ./cmd/apicheck -write), making API changes explicit
// in review.
func TestAPISurfaceGolden(t *testing.T) {
	decls, err := apisurface.Surface(".")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("API.txt")
	if err != nil {
		t.Fatalf("API.txt missing: %v (regenerate with go run ./cmd/apicheck -golden API.txt -write)", err)
	}
	breaking, additions := apisurface.Compare(apisurface.Parse(string(want)), decls)
	if msgs := append(breaking, additions...); len(msgs) > 0 {
		t.Fatalf("exported API differs from API.txt:\n%s\nregenerate with: go run ./cmd/apicheck -golden API.txt -write",
			strings.Join(msgs, "\n"))
	}
}

// TestNewOptionsCompose: config, faults, stepping, tracer, and sampler
// options all take effect through one New call.
func TestNewOptionsCompose(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SA.Entries = 4
	var traced, sampled int
	m := New(
		WithConfig(cfg),
		WithFaults(DefaultChaosFaults()),
		WithLegacyStepping(),
		WithTracer(func(cycle uint64, req Request) { traced++ }),
		WithSampler(64, func(now uint64) { sampled++ }),
	)
	if got := m.Config(); got.SA.Entries != 4 || !got.LegacyStepping || !got.Faults.Enabled() {
		t.Fatalf("options not applied: %+v", got)
	}
	data := make([]int, 256)
	for i := range data {
		data[i] = i % 8
	}
	bins, _ := HistogramI64(m, data, 8)
	for _, b := range bins {
		if b != 32 {
			t.Fatalf("faulted run bins = %v, want all 32", bins)
		}
	}
	if traced != len(data) {
		t.Fatalf("tracer saw %d requests, want %d", traced, len(data))
	}
	if sampled == 0 {
		t.Fatal("sampler never fired")
	}
}

// TestWithFaultsDeterministic: two identical faulted machines produce
// identical cycle counts.
func TestWithFaultsDeterministic(t *testing.T) {
	run := func() uint64 {
		fc := fault.DefaultChaos()
		fc.DRAMStallRate = 0.05
		m := New(WithFaults(fc))
		data := make([]int, 512)
		for i := range data {
			data[i] = i % 16
		}
		_, res := HistogramI64(m, data, 16)
		return res.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("faulted runs diverge: %d vs %d cycles", a, b)
	}
}

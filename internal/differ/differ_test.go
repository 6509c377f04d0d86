package differ

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"scatteradd/internal/exp"
	"scatteradd/internal/fault"
)

// figsUnderTest returns the figure set to diff: FFDIFF_FIGS narrows it for
// targeted CI jobs (comma-separated figure numbers), otherwise every figure.
func figsUnderTest(t *testing.T) []int {
	env := os.Getenv("FFDIFF_FIGS")
	if env == "" {
		return Figures
	}
	var figs []int
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			t.Fatalf("FFDIFF_FIGS=%q: %v", env, err)
		}
		figs = append(figs, n)
	}
	return figs
}

// scaleUnderTest returns the dataset scale divisor: FFDIFF_SCALE overrides
// the default of 8 (small enough to diff every figure in one test run,
// large enough that every component — caches, DRAM, network, combining
// stores — sees real traffic).
func scaleUnderTest(t *testing.T) int {
	env := os.Getenv("FFDIFF_SCALE")
	if env == "" {
		return 8
	}
	n, err := strconv.Atoi(env)
	if err != nil {
		t.Fatalf("FFDIFF_SCALE=%q: %v", env, err)
	}
	return n
}

// figScale bumps the dataset divisor for the kilo-node scale-out figure:
// the equivalence gates are scale-independent, and Fig. 14's 16-1024-node
// fabrics are an order of magnitude more simulation per reference than the
// paper-scale figures.
func figScale(fig, scale int) int {
	if fig == 14 {
		return scale * 8
	}
	return scale
}

// TestFastForwardEquivalence is the differential gate: every figure must
// produce byte-identical output — rendered table, raw counter snapshot,
// span reports — under quiescence fast-forward and legacy per-cycle
// stepping.
func TestFastForwardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate runs full figure suites")
	}
	scale := scaleUnderTest(t)
	for _, fig := range figsUnderTest(t) {
		fig := fig
		t.Run(fmt.Sprintf("fig%d", fig), func(t *testing.T) {
			t.Parallel()
			// Jobs: 1 inside each run — the figures under test already run
			// in parallel with each other here, and single-worker runs keep
			// any divergence deterministic to rerun.
			if err := Diff(fig, exp.Options{Scale: figScale(fig, scale), Jobs: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFastForwardJobsInvariance checks the fast-forward path composes with
// the parallel experiment runner: a multi-worker fast-forward run must be
// indistinguishable from a single-worker legacy run.
func TestFastForwardJobsInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate runs full figure suites")
	}
	scale := scaleUnderTest(t)
	o := exp.Options{Scale: scale, CollectStats: true, CollectSpans: true}
	o.Legacy, o.Jobs = false, 4
	ff, err := Run(6, o)
	if err != nil {
		t.Fatal(err)
	}
	o.Legacy, o.Jobs = true, 1
	legacy, err := Run(6, o)
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(ff, legacy); err != nil {
		t.Fatalf("fig 6 at jobs=4 (fast-forward) vs jobs=1 (per-cycle): %v", err)
	}
}

// TestFastForwardEquivalenceWithFaults extends the differential gate to
// fault-injected runs: with every injector firing at the default chaos rate,
// fast-forward and per-cycle stepping must still be indistinguishable. This
// is the strongest form of the injectors' event-grain determinism contract —
// fault draws happen only at granted/issued/retired events, which both
// stepping modes execute identically. Fig. 6 covers the single-node memory
// system (DRAM stalls and windows, partial scrubs, FU retries); Fig. 13
// covers the multi-node link layer (drops, duplications, retries, dedup)
// and combining-store degradation; Fig. 14 covers the multi-hop fabrics'
// per-hop retransmit/dedup and in-switch combining under loss.
func TestFastForwardEquivalenceWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gate runs full figure suites")
	}
	scale := scaleUnderTest(t) * 2 // chaos runs are slower; shrink the data
	for _, fig := range []int{6, 13, 14} {
		fig := fig
		t.Run(fmt.Sprintf("fig%d", fig), func(t *testing.T) {
			t.Parallel()
			o := exp.Options{Scale: scale, Jobs: 1, Faults: fault.DefaultChaos()}
			if err := Diff(fig, o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunRejectsUnknownFigure covers the error path.
func TestRunRejectsUnknownFigure(t *testing.T) {
	if _, err := Run(99, exp.Options{Scale: 8}); err == nil {
		t.Fatal("Run(99) succeeded; want error")
	}
}

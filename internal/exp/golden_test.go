package exp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"scatteradd/internal/fault"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestMultiNodeGolden pins the rendered bytes of Figs 13 and 14 at -scale 64,
// counter and span appendices included, fault-free and under the full chaos
// fault mix. internal/differ compares fast-forward with legacy stepping
// inside one tree, so it cannot see a change that moves both modes alike;
// these files can. Regenerate them with `go test ./internal/exp -run
// TestMultiNodeGolden -update` only when a change is meant to move the bytes.
func TestMultiNodeGolden(t *testing.T) {
	checkGolden(t, 64, "fig13", "fig14")
}

// TestMachineGolden pins the single-machine figures (Figs 6-12) the same way
// at -scale 8. Both stepping modes count occupancy at change points, so a
// sampling fault they share would pass internal/differ; it moves these
// counter appendices. Regenerate with -update only when a change is meant to
// move the bytes.
func TestMachineGolden(t *testing.T) {
	checkGolden(t, 8, "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12")
}

// checkGolden renders each named figure at the given scale, fault-free and
// under the full chaos fault mix, with counter and span appendices, and
// compares the bytes with testdata/<figure>[_faults1].golden (or rewrites
// them under -update).
func checkGolden(t *testing.T, scale int, figs ...string) {
	for _, c := range []struct {
		name   string
		faults fault.Config
	}{
		{"", fault.Config{}},
		{"_faults1", fault.DefaultChaos().Scale(1)},
	} {
		o := Options{Scale: scale, CollectStats: true, CollectSpans: true, Faults: c.faults}
		for _, fig := range figs {
			f, ok := LookupFigure(fig)
			if !ok {
				t.Fatalf("no figure %q", fig)
			}
			name := fig + c.name
			path := filepath.Join("testdata", name+".golden")
			got := []byte(f.Gen(o).String())
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: rendered bytes differ from %s (%d vs %d bytes)", name, path, len(got), len(want))
			}
		}
	}
}

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
	for _, c := range []struct {
		name   string
		faults fault.Config
	}{
		{"", fault.Config{}},
		{"_faults1", fault.DefaultChaos().Scale(1)},
	} {
		o := Options{Scale: 64, CollectStats: true, CollectSpans: true, Faults: c.faults}
		for _, fig := range []struct {
			name string
			run  func(Options) Table
		}{{"fig13", Fig13}, {"fig14", Fig14}} {
			path := filepath.Join("testdata", fig.name+c.name+".golden")
			got := []byte(fig.run(o).String())
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
				t.Errorf("%s: rendered bytes differ from %s (%d vs %d bytes)", fig.name+c.name, path, len(got), len(want))
			}
		}
	}
}

package multinode

import (
	"testing"

	"scatteradd/internal/mem"
)

// topologyNames is ParseTopology's vocabulary.
var topologyNames = []string{"flat", "flat+comb", "hypercube", "tree", "tree+comb", "mesh", "mesh+comb"}

// FuzzParseTopology feeds arbitrary (name, fan-in) pairs to the topology
// parser. The corpus is seeded with every accepted name and some junk, each
// at fan-ins -3..5. Properties: ParseTopology never panics, it accepts
// exactly the seven names with a fan-in of 0 or at least 2, and every
// Topology it returns builds a 16-node system without panicking.
func FuzzParseTopology(f *testing.F) {
	junk := []string{"", "torus", "FLAT", "tree+", "+comb", "mesh+comb+comb", "hypercube ", "tree\x00"}
	for _, name := range append(append([]string(nil), topologyNames...), junk...) {
		for fanIn := -3; fanIn <= 5; fanIn++ {
			f.Add(name, fanIn)
		}
	}
	f.Fuzz(func(t *testing.T, name string, fanIn int) {
		topo, err := ParseTopology(name, fanIn)
		known := false
		for _, n := range topologyNames {
			known = known || n == name
		}
		if want := known && (fanIn == 0 || fanIn >= 2); (err == nil) != want {
			t.Fatalf("ParseTopology(%q, %d) error = %v, want accepted = %v", name, fanIn, err, want)
		}
		if err != nil {
			return
		}
		New(topoConfig(16, 1, lineSpan(1024, 16), topo), mem.AddI64)
	})
}

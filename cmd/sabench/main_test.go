package main

import (
	"strings"
	"testing"
)

// TestCheckFlags checks that every flag value no run can use is rejected
// with a message naming the flag, and that the defaults pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n, rng   int
		mol      int
		nodes    int
		topology string
		fanin    int
		want     string // substring of the error; "" for none
	}{
		{"defaults", 32768, 2048, 903, 1, "flat", 0, ""},
		{"empty histogram", 0, 2048, 903, 1, "flat", 0, ""},
		{"hypercube of 16", 1024, 512, 903, 16, "hypercube", 0, ""},
		{"single node ignores topology", 1024, 512, 903, 3, "flat", 0, ""},
		{"n negative", -4, 2048, 903, 1, "flat", 0, "-n -4 invalid"},
		{"range 0", 32768, 0, 903, 1, "flat", 0, "-range 0 invalid"},
		{"mol 0", 32768, 2048, 0, 1, "flat", 0, "-mol 0 invalid"},
		{"hypercube of 3", 1024, 512, 903, 3, "hypercube", 0, "power-of-two node count, got 3"},
		{"unknown topology", 1024, 512, 903, 4, "ring", 0, `unknown topology "ring"`},
		{"fan-in 1", 1024, 512, 903, 4, "tree", 1, "fan-in 1 invalid"},
	} {
		err := checkFlags(tc.n, tc.rng, tc.mol, tc.nodes, tc.topology, tc.fanin)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: checkFlags = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

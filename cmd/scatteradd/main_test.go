package main

import (
	"math"
	"strings"
	"testing"
)

// TestCheckFlags checks that every flag value no run can use is rejected
// with a message naming the flag, and that the defaults pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		scale    int
		jobs     int
		spanRate int
		faults   float64
		fanin    int
		topology string
		want     string // substring of the error; "" for none
	}{
		{"defaults", 1, 2, 16, 0, 0, "", ""},
		{"everything set", 8, 1, 1, 1, 2, "tree+comb", ""},
		{"scale 0", 0, 2, 16, 0, 0, "", "-scale 0 invalid"},
		{"scale negative", -3, 2, 16, 0, 0, "", "-scale -3 invalid"},
		{"jobs 0", 1, 0, 16, 0, 0, "", "-jobs 0 invalid"},
		{"span rate 0", 1, 2, 0, 0, 0, "", "-span-rate 0 invalid"},
		{"faults above 1", 1, 2, 16, 1.5, 0, "", "-faults 1.5 invalid"},
		{"faults NaN", 1, 2, 16, math.NaN(), 0, "", "-faults NaN invalid"},
		{"fan-in 1", 1, 2, 16, 0, 1, "", "-fanin 1 invalid"},
		{"unknown topology", 1, 2, 16, 0, 0, "ring", `unknown topology "ring"`},
	} {
		err := checkFlags(tc.scale, tc.jobs, tc.spanRate, tc.faults, tc.fanin, tc.topology)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: checkFlags = %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

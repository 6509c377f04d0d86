package main

import (
	"strings"
	"testing"
)

// TestCheckFlags checks that every flag value no run can use is rejected
// with a message naming the flag, and that zero references (an empty trace)
// and the defaults pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		n        int
		interval uint64
		format   string
		want     string // substring of the error; "" for none
	}{
		{65536, 1024, "csv", ""},
		{0, 1024, "csv", ""},
		{65536, 1, "jsonl", ""},
		{-5, 1024, "csv", "-n -5 invalid"},
		{65536, 0, "csv", "-interval 0 invalid"},
		{65536, 1024, "xml", `-format "xml" invalid`},
	} {
		err := checkFlags(tc.n, tc.interval, tc.format)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("-n %d -interval %d -format %q: checkFlags = %v, want error containing %q", tc.n, tc.interval, tc.format, err, tc.want)
		}
	}
}

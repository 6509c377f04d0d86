package main

import (
	"strings"
	"testing"
)

// TestCheckFlags checks that a negative reference count is rejected with a
// message naming the flag, and that zero (an empty trace) and the default
// pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string // substring of the error; "" for none
	}{
		{65536, ""},
		{0, ""},
		{-5, "-n -5 invalid"},
	} {
		err := checkFlags(tc.n)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("-n %d: checkFlags = %v, want error containing %q", tc.n, err, tc.want)
		}
	}
}

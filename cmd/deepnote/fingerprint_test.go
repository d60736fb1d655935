package main

import (
	"strings"
	"testing"
)

// runMain runs `deepnote args...` in-process and returns its exit status
// and its stdout and stderr combined.
func runMain(args ...string) (int, string) {
	var out strings.Builder
	code := run(args, &out, &out)
	return code, out.String()
}

// A tone that is not finite and positive, a non-finite or negative cell
// duration, or a seed count below one must stop the fingerprint run with a
// domain error (exit 1) instead of printing a table with no detections,
// dividing by zero, or running 650 Hz under a "0 Hz" header.
func TestFingerprintRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-freq", "NaN"},
		{"-freq", "0"},
		{"-freq", "-650"},
		{"-duration", "NaN"},
		{"-duration", "-1"},
		{"-seeds", "0"},
		{"-seeds", "-1"},
	} {
		if code, _ := runMain(append([]string{"fingerprint", "-seeds", "1"}, args...)...); code != 1 {
			t.Errorf("deepnote fingerprint %v exited %d, want 1", args, code)
		}
	}
}

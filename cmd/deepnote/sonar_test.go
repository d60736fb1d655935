package main

import "testing"

// A hydrophone count below one or a non-finite or negative standoff must
// stop the sonar run with a domain error (exit 1) instead of printing a
// header for one array and running another, or a report nothing was heard
// in.
func TestSonarRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-hydrophones", "0"},
		{"-hydrophones", "-3"},
		{"-standoff", "NaN"},
		{"-standoff", "Inf"},
		{"-standoff", "-1"},
	} {
		if code := runMain(t, append([]string{"sonar"}, args...)...); code != 1 {
			t.Errorf("deepnote sonar %v exited %d, want 1", args, code)
		}
	}
}

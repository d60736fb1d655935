package main

import "testing"

// A hydrophone or container count below one, a non-finite or negative
// standoff or rate, or more speakers than containers must stop the sonar
// run with a domain error (exit 1) instead of printing a header for one
// array and running another, or a report nothing was heard in.
func TestSonarRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-hydrophones", "0"},
		{"-hydrophones", "-3"},
		{"-standoff", "NaN"},
		{"-standoff", "Inf"},
		{"-standoff", "-1"},
		{"-containers", "-3"},
		{"-rate", "-5"},
		{"-speakers", "99"},
	} {
		if code := runMain(t, append([]string{"sonar"}, args...)...); code != 1 {
			t.Errorf("deepnote sonar %v exited %d, want 1", args, code)
		}
	}
}

package main

import "testing"

// A count below one, a spacing, distance, duration or frequency that is
// not finite and positive, or a probability outside [0, 1] must stop the
// run with a domain error (exit 1) instead of silently running a default
// or printing a report for a nonsensical input.
func TestFacilityIntegrityOutageRejectBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"facility", "-spacing", "NaN"},
		{"facility", "-spacing", "Inf"},
		{"facility", "-spacing", "-2"},
		{"facility", "-containers", "-3"},
		{"facility", "-containers", "0"},
		{"facility", "-drives", "0"},
		{"integrity", "-prob", "7"},
		{"integrity", "-prob", "-0.1"},
		{"integrity", "-prob", "NaN"},
		{"integrity", "-distance", "NaN"},
		{"integrity", "-distance", "Inf"},
		{"outage", "-during", "-5"},
		{"outage", "-during", "Inf"},
		{"outage", "-freq", "NaN"},
		{"outage", "-freq", "-650"},
	} {
		if code := runMain(t, args...); code != 1 {
			t.Errorf("deepnote %v exited %d, want 1", args, code)
		}
	}
}

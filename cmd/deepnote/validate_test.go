package main

import "testing"

// A count or probe budget below one, a spacing, distance, duration, rate
// or frequency that is not finite and positive, a probability outside
// [0, 1], a load or water temperature outside its domain, or a speaker,
// cell or blast count beyond the facility must stop the run with a domain
// error (exit 1) instead of silently running a default, clamping, or
// printing a report for a nonsensical input.
func TestFacilityIntegrityOutageRejectBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"integrity", "-prob", "7"},
		{"integrity", "-prob", "-0.1"},
		{"integrity", "-prob", "NaN"},
		{"integrity", "-distance", "NaN"},
		{"integrity", "-distance", "Inf"},
		{"outage", "-during", "-5"},
		{"outage", "-during", "Inf"},
		{"outage", "-freq", "NaN"},
		{"outage", "-freq", "-650"},
		{"cluster", "-containers", "0"},
		{"cluster", "-speakers", "99"},
		{"cluster", "-cell", "99"},
		{"cluster", "-rate", "NaN"},
		{"fleet", "-sites", "0"},
		{"fleet", "-attack-stop", "0.1"},
		{"fleet", "-deadline", "-1"},
		{"fleet", "-blast", "99"},
		{"resilience", "-attack", "-5"},
		{"resilience", "-attack", "NaN"},
		{"stealth", "-on", "0"},
		{"stealth", "-duration", "NaN"},
		{"stealthgrid", "-duration", "-1"},
		// The sweep loop never ended on these two.
		{"figure2", "-step", "NaN"},
		{"figure2", "-step", "-100"},
		{"figure2", "-step", "0"},
		// These ran and printed a verdict for a nonsensical input.
		{"defense", "-distance", "NaN"},
		{"defense", "-distance", "Inf"},
		{"deploy", "-distance", "NaN"},
		{"deploy", "-load", "NaN"},
		{"deploy", "-watertemp", "NaN"},
		{"range", "-freq", "NaN"},
		{"range", "-freq", "-650"},
		{"section5", "-freq", "NaN"},
		{"adaptive", "-budget", "0"},
		{"adaptive", "-budget", "-3"},
		{"exfil", "-distances", "-3"},
		{"exfil", "-distances", "0"},
		{"exfil", "-distances", "20,-3"},
		{"exfil", "-depths", "-1"},
		// These ran 3 and 8 frames instead.
		{"exfil", "-frames", "0"},
		{"exfil", "-detect-frames", "0"},
	} {
		if code := runMain(t, args...); code != 1 {
			t.Errorf("deepnote %v exited %d, want 1", args, code)
		}
	}
}

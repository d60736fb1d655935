package main

import (
	"strings"
	"testing"
)

// A count or probe budget below one, a negative worker count, a spacing,
// distance, duration, rate or frequency that is not finite and positive, a
// probability outside [0, 1], a load or water temperature outside its
// domain, or a speaker, cell or blast count beyond the facility must stop
// the run with a domain error (exit 1) instead of silently running a
// default, clamping, or printing a report for a nonsensical input.
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
		// These ran the 5 s default and failed inside kvdb.
		{"table2", "-runtime", "0"},
		{"table2", "-runtime", "-1"},
		{"adaptive", "-budget", "0"},
		{"adaptive", "-budget", "-3"},
		{"exfil", "-distances", "-3"},
		{"exfil", "-distances", "0"},
		{"exfil", "-distances", "20,-3"},
		{"exfil", "-depths", "-1"},
		// These ran 3 and 8 frames instead.
		{"exfil", "-frames", "0"},
		{"exfil", "-detect-frames", "0"},
		// These ran one worker per CPU and recorded the negative count.
		{"figure2", "-workers", "-3"},
		{"sweep", "-workers", "-3"},
		{"cluster", "-workers", "-3"},
		{"cluster", "-cell-workers", "-1"},
		{"fleet", "-workers", "-3"},
		{"fleet", "-cell-workers", "-1"},
		{"sonar", "-workers", "-3"},
		{"fingerprint", "-workers", "-3"},
		{"exfil", "-workers", "-3"},
		{"stealthgrid", "-workers", "-3"},
		{"ablation", "-workers", "-3"},
		{"resilience", "-workers", "-3"},
		{"selfcheck", "-workers", "-3"},
	} {
		if code, _ := runMain(args...); code != 1 {
			t.Errorf("deepnote %v exited %d, want 1", args, code)
		}
	}
}

// A rejected flag or argument is named in the output, as range and
// section5 name -freq, and the exit status tells a domain error (1) from a
// usage error (2) and from -h (0).
func TestRejectedFlagIsNamed(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"fingerprint", "-freq", "0"}, 1, "-freq 0 must be finite and positive"},
		{[]string{"range", "-freq", "0"}, 1, "-freq 0 must be finite and positive"},
		{[]string{"table2", "-runtime", "0"}, 1, "-runtime 0 must be finite and positive"},
		{[]string{"table2", "-runtime", "-1"}, 1, "-runtime -1 must be finite and positive"},
		{[]string{"sweep", "-workers", "-3"}, 1, "-workers -3 must be finite and ≥ 0"},
		{[]string{"fleet", "-cell-workers", "-1"}, 1, "-cell-workers -1 must be finite and ≥ 0"},
		{[]string{"sweep", "-scenario", "7"}, 1, "deepnote sweep: scenario must be 1, 2, or 3 (got 7)"},
		// selfcheck -runtime takes seconds like every other -runtime flag.
		{[]string{"selfcheck", "-runtime", "NaN"}, 1, "-runtime NaN: not a duration in seconds"},
		{[]string{"selfcheck", "-runtime", "0"}, 1, "oracle: Differ.JobRuntime 0s must be finite and positive"},
		// The CLI grid cannot tell this mutant from a clean run.
		{[]string{"selfcheck", "-mutant", "full-base-on-failure"}, 1, `unknown mutant "full-base-on-failure"`},
		// Flag parsing stops at the first non-flag, so these ran the
		// full default run with every later flag dropped.
		{[]string{"figure2", "extra", "-step", "0"}, 2, `unexpected argument "extra"`},
		{[]string{"table3", "extra"}, 2, `unexpected argument "extra"`},
		{[]string{"all", "extra"}, 2, `unexpected argument "extra"`},
		{[]string{"figure2", "-nosuch"}, 2, "flag provided but not defined: -nosuch"},
		{[]string{"figure2", "-step", "x"}, 2, `invalid value "x" for flag -step`},
		{[]string{"nosuch"}, 2, `unknown command "nosuch"`},
		{nil, 2, "commands:"},
		{[]string{"figure2", "-h"}, 0, "frequency step in Hz"},
		{[]string{"help"}, 0, "commands:"},
	} {
		code, out := runMain(c.args...)
		if code != c.code || !strings.Contains(out, c.want) {
			t.Errorf("deepnote %v: exit %d, output %q; want exit %d naming %q", c.args, code, out, c.code, c.want)
		}
	}
}

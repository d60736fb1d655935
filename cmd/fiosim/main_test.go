package main

import (
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMainHelper runs main on the arguments after "--" when the test
// binary re-executes itself, so a test can drive the command end to end.
// In a normal test run there are no such arguments and it skips.
func TestMainHelper(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("runs only as a re-executed subprocess")
	}
	os.Args = append([]string{"fiosim"}, flag.Args()...)
	main()
}

// fiosim runs `fiosim args...` in a subprocess and returns its stdout,
// stderr and exit code.
func fiosim(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainHelper$", "--"}, args...)...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("fiosim %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestRejectsBadFreq: a negative or non-finite tone exits 1 naming the
// value, instead of running unattacked or printing an infinite tone.
func TestRejectsBadFreq(t *testing.T) {
	for _, c := range []struct{ freq, want string }{
		{"NaN", "-freq NaN"},
		{"-5", "-freq -5"},
		{"Inf", "-freq +Inf"},
		{"-Inf", "-freq -Inf"},
	} {
		stdout, stderr, code := fiosim(t, "-freq", c.freq, "-runtime", "0.1")
		if code != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("fiosim -freq %s: exit %d, stderr %q; want exit 1 naming %q", c.freq, code, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("fiosim -freq %s printed a result: %q", c.freq, stdout)
		}
	}
}

// TestRejectsBadRuntime: a runtime no time.Duration can hold exits 1
// naming the flag, instead of overflowing into a negative runtime that the
// job reports as its own fault.
func TestRejectsBadRuntime(t *testing.T) {
	for _, c := range []struct{ runtime, want string }{
		{"1e12", "-runtime 1e+12"},
		{"-1e12", "-runtime -1e+12"},
		{"NaN", "-runtime NaN"},
		{"Inf", "-runtime +Inf"},
	} {
		stdout, stderr, code := fiosim(t, "-runtime", c.runtime)
		if code != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("fiosim -runtime %s: exit %d, stderr %q; want exit 1 naming %q", c.runtime, code, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("fiosim -runtime %s printed a result: %q", c.runtime, stdout)
		}
	}
}

// TestZeroFreqRunsUnattacked: -freq 0 runs the job with no attack line,
// and a positive tone announces the attack before the job's result.
func TestZeroFreqRunsUnattacked(t *testing.T) {
	stdout, stderr, code := fiosim(t, "-freq", "0", "-runtime", "0.1")
	if code != 0 || !strings.HasPrefix(stdout, "write: bs=4096") {
		t.Fatalf("-freq 0: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	stdout, stderr, code = fiosim(t, "-freq", "650", "-runtime", "0.1")
	if code != 0 || !strings.HasPrefix(stdout, "attack: 650Hz tone") {
		t.Fatalf("-freq 650: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"testing"
)

// TestMainHelper runs main on the arguments after "--" when the test
// binary re-executes itself, so a test can observe the process exit code.
// In a normal test run there are no such arguments and it skips.
func TestMainHelper(t *testing.T) {
	if flag.NArg() == 0 {
		t.Skip("runs only as a re-executed subprocess")
	}
	os.Args = append([]string{"deepnote"}, flag.Args()...)
	main()
}

// runMain runs `deepnote args...` in a subprocess and returns its exit
// code.
func runMain(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainHelper$", "--"}, args...)...)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode()
	}
	if err != nil {
		t.Fatalf("deepnote %v: %v\n%s", args, err, out)
	}
	return 0
}

// A NaN tone, a non-finite or negative cell duration, or a seed count
// below one must stop the fingerprint run with a domain error (exit 1)
// instead of printing a table with no detections or dividing by zero.
func TestFingerprintRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-freq", "NaN"},
		{"-duration", "NaN"},
		{"-duration", "-1"},
		{"-seeds", "0"},
		{"-seeds", "-1"},
	} {
		if code := runMain(t, append([]string{"fingerprint", "-seeds", "1"}, args...)...); code != 1 {
			t.Errorf("deepnote fingerprint %v exited %d, want 1", args, code)
		}
	}
}

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
	os.Args = append([]string{"dbbench"}, flag.Args()...)
	main()
}

// dbbench runs `dbbench args...` in a subprocess and returns its stdout,
// stderr and exit code.
func dbbench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainHelper$", "--"}, args...)...)
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); ok {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatalf("dbbench %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

// TestRejectsBadFlags: a value size below one byte and a negative fill
// exit 1 naming the value, instead of running as the defaults.
func TestRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-valuesize", "0"}, "ValueSize 0"},
		{[]string{"-valuesize", "-5"}, "ValueSize -5"},
		{[]string{"-workload", "fillseq", "-valuesize", "0"}, "ValueSize 0"},
		{[]string{"-fill", "-3"}, "-fill -3"},
		{[]string{"-workload", "readrandom", "-num", "-2"}, "Num -2"},
	} {
		stdout, stderr, code := dbbench(t, c.args...)
		if code != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("dbbench %v: exit %d, stderr %q; want exit 1 naming %q", c.args, code, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("dbbench %v printed a result: %q", c.args, stdout)
		}
	}
}

// TestRunsWithoutFill: -fill 0 skips the pre-population and still runs
// the readwhilewriting window.
func TestRunsWithoutFill(t *testing.T) {
	stdout, stderr, code := dbbench(t, "-fill", "0", "-runtime", "0.5")
	if code != 0 || !strings.HasPrefix(stdout, "readwhilewriting: ops=") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

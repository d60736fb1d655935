package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dbbench runs `dbbench args...` in-process and returns its stdout, stderr
// and exit status.
func dbbench(args ...string) (stdout, stderr string, code int) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestRejectsBadFlags: a value size below one byte, a negative fill, a
// negative or non-finite tone, a runtime no time.Duration can hold, a bad
// scenario and an image path that cannot be opened for a reason other than
// a missing file exit 1 naming the value, instead of running as the
// defaults, running unattacked, reporting the wrong fault or overwriting
// the image. An unknown flag, a value that does not parse and a stray
// argument (flag parsing stops there and would drop the flags after it)
// exit 2, and -h exits 0.
func TestRejectsBadFlags(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
		code int
	}{
		{[]string{"-valuesize", "0"}, "ValueSize 0", 1},
		{[]string{"-valuesize", "-5"}, "ValueSize -5", 1},
		{[]string{"-workload", "fillseq", "-valuesize", "0"}, "ValueSize 0", 1},
		{[]string{"-fill", "-3"}, "-fill -3", 1},
		{[]string{"-workload", "readrandom", "-num", "-2"}, "Num -2", 1},
		{[]string{"-freq", "NaN"}, "-freq NaN", 1},
		{[]string{"-freq", "-5"}, "-freq -5", 1},
		{[]string{"-freq", "Inf"}, "-freq +Inf", 1},
		{[]string{"-runtime", "1e12"}, "-runtime 1e+12", 1},
		{[]string{"-runtime", "NaN"}, "-runtime NaN", 1},
		{[]string{"-runtime", "-Inf"}, "-runtime -Inf", 1},
		{[]string{"-scenario", "7"}, "scenario must be 1, 2, or 3 (got 7)", 1},
		{[]string{"-image", filepath.Join(file, "x.img")}, "not a directory", 1},
		{[]string{"-nosuch"}, "flag provided but not defined: -nosuch", 2},
		{[]string{"-num", "x"}, `invalid value "x" for flag -num`, 2},
		{[]string{"extra", "-runtime", "0.5"}, `unexpected argument "extra"`, 2},
		{[]string{"-h"}, "Usage of dbbench", 0},
	} {
		stdout, stderr, code := dbbench(c.args...)
		if code != c.code || !strings.Contains(stderr, c.want) {
			t.Errorf("dbbench %v: exit %d, stderr %q; want exit %d naming %q", c.args, code, stderr, c.code, c.want)
		}
		if stdout != "" {
			t.Errorf("dbbench %v printed a result: %q", c.args, stdout)
		}
	}
}

// TestRunsWithoutFill: -fill 0 skips the pre-population and still runs
// the readwhilewriting window.
func TestRunsWithoutFill(t *testing.T) {
	stdout, stderr, code := dbbench("-fill", "0", "-runtime", "0.5")
	if code != 0 || !strings.HasPrefix(stdout, "readwhilewriting: ops=") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestAttackedRunCrashesWithoutImage: the 650 Hz run crashes the store
// whether or not -image is given. Without -image the WAL failure is still
// buffered when the window ends and surfaces only as the store closes,
// so the run must close it to report the crash.
func TestAttackedRunCrashesWithoutImage(t *testing.T) {
	stdout, stderr, code := dbbench("-runtime", "0.5", "-freq", "650")
	if code != 1 || !strings.Contains(stdout, "\n  CRASHED: ") || !strings.Contains(stderr, "database crashed") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 and a CRASHED line", code, stdout, stderr)
	}
}

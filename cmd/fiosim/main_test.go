package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fiosim runs `fiosim args...` in-process and returns its stdout, stderr
// and exit status.
func fiosim(args ...string) (stdout, stderr string, code int) {
	var out, errOut strings.Builder
	code = run(args, &out, &errOut)
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
		stdout, stderr, code := fiosim("-freq", c.freq, "-runtime", "0.1")
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
		stdout, stderr, code := fiosim("-runtime", c.runtime)
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
	stdout, stderr, code := fiosim("-freq", "0", "-runtime", "0.1")
	if code != 0 || !strings.HasPrefix(stdout, "write: bs=4096") {
		t.Fatalf("-freq 0: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	stdout, stderr, code = fiosim("-freq", "650", "-runtime", "0.1")
	if code != 0 || !strings.HasPrefix(stdout, "attack: 650Hz tone") {
		t.Fatalf("-freq 650: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestExitStatus: -h exits 0; an unknown flag, a value that does not parse
// and a stray argument (flag parsing stops there and would drop the flags
// after it) exit 2; a bad scenario or pattern exits 1 naming it. An image
// path that cannot be opened for a reason other than a missing file fails
// before the run, instead of running on a fresh disk and overwriting it; a
// failed save exits 1; a failed job saves no image.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	img, file := filepath.Join(dir, "x.img"), filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args         []string
		code         int
		want, stdout string // part of stderr, start of stdout
	}{
		{[]string{"-h"}, 0, "Usage of fiosim", ""},
		{[]string{"-nosuch"}, 2, "flag provided but not defined: -nosuch", ""},
		{[]string{"-bs", "x"}, 2, `invalid value "x" for flag -bs`, ""},
		{[]string{"extra", "-runtime", "0.1"}, 2, `unexpected argument "extra"`, ""},
		{[]string{"-scenario", "7"}, 1, "fiosim: scenario must be 1, 2, or 3 (got 7)", ""},
		{[]string{"-pattern", "seq"}, 1, `fiosim: unknown pattern "seq"`, ""},
		{[]string{"-runtime", "0.1", "-image", filepath.Join(file, "x.img")}, 1, "fiosim: loading image", ""},
		{[]string{"-runtime", "0.1", "-image", filepath.Join(dir, "nodir", "x.img")}, 1, "fiosim: saving image", "write: bs=4096"},
		{[]string{"-runtime", "0.1", "-bs", "0", "-image", img}, 1, "block size must be positive", ""},
	} {
		stdout, stderr, code := fiosim(c.args...)
		if code != c.code || !strings.Contains(stderr, c.want) || !strings.HasPrefix(stdout, c.stdout) || c.stdout == "" && stdout != "" {
			t.Errorf("fiosim %v: exit %d, stdout %q, stderr %q; want exit %d, %q, stdout %q", c.args, code, stdout, stderr, c.code, c.want, c.stdout)
		}
	}
	if _, err := os.Stat(img); !os.IsNotExist(err) {
		t.Errorf("a failed job saved an image: %v", err)
	}
	for i := 0; i < 2; i++ { // the second run loads what the first saved
		if _, stderr, code := fiosim("-runtime", "0.1", "-image", img); code != 0 {
			t.Fatalf("run %d with -image: exit %d, stderr %q", i, code, stderr)
		}
	}
}

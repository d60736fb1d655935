package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
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
	os.Args = append([]string{"jfstool"}, flag.Args()...)
	main()
}

// jfstool runs `jfstool args...` in a subprocess and returns its stdout.
func jfstool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestMainHelper$", "--"}, args...)...)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("jfstool %v: %v", args, err)
	}
	return string(out)
}

// The documented usage puts -blocks after the subcommand; it must size the
// filesystem, not be ignored in favour of the default.
func TestMkfsBlocksAfterSubcommand(t *testing.T) {
	img := filepath.Join(t.TempDir(), "fs.img")
	jfstool(t, "-image", img, "mkfs", "-blocks", "4096")
	if out := jfstool(t, "-image", img, "stat"); !strings.HasPrefix(out, "blocks: 4096 ") {
		t.Fatalf("stat after mkfs -blocks 4096: %q", out)
	}
}

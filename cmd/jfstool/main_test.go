package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// jfstool runs `jfstool args...` in-process with stdin as its input and
// returns its stdout, stderr and exit status.
func jfstool(stdin string, args ...string) (stdout, stderr string, code int) {
	var out, errOut strings.Builder
	code = run(args, strings.NewReader(stdin), &out, &errOut)
	return out.String(), errOut.String(), code
}

// The documented usage puts -blocks after the subcommand; it must size the
// filesystem, not be ignored in favour of the default.
func TestMkfsBlocksAfterSubcommand(t *testing.T) {
	img := filepath.Join(t.TempDir(), "fs.img")
	if _, stderr, code := jfstool("", "-image", img, "mkfs", "-blocks", "4096"); code != 0 {
		t.Fatalf("mkfs -blocks 4096: exit %d, stderr %q", code, stderr)
	}
	if out, _, _ := jfstool("", "-image", img, "stat"); !strings.HasPrefix(out, "blocks: 4096 ") {
		t.Fatalf("stat after mkfs -blocks 4096: %q", out)
	}
}

// Every subcommand runs on one image: a file put from stdin reads back
// with cat, lists with its size and is gone after rm, and the filesystem
// checks clean. A missing -image or subcommand is a usage error (exit 2),
// and an unknown subcommand exits 1 naming it.
func TestSubcommands(t *testing.T) {
	img := filepath.Join(t.TempDir(), "fs.img")
	for _, c := range []struct {
		stdin string
		args  []string
		code  int
		want  string // all of stdout on exit 0, else part of stderr
	}{
		{"", []string{"mkfs", "-blocks", "4096"}, 0, "created " + img + ": 4096 blocks (16 MiB)\n"},
		{"hello\n", []string{"put", "greeting"}, 0, ""},
		{"", []string{"cat", "greeting"}, 0, "hello\n"},
		{"", []string{"ls"}, 0, "         6  greeting\n"},
		{"", []string{"fsck"}, 0, "files: 1, used blocks: 1, free blocks: 2909\nclean\n"},
		{"", []string{"rm", "greeting"}, 0, ""},
		{"", []string{"ls"}, 0, ""},
		{"", []string{"fsck"}, 0, "files: 0, used blocks: 0, free blocks: 2910\nclean\n"},
		{"", []string{"stat"}, 0, "blocks: 4096  journal: 1024 blocks  inodes: 4096  mounts: 8  state: 2\n"},
		{"", []string{"frobnicate"}, 1, `jfstool: unknown command "frobnicate"`},
		{"", nil, 2, "Usage of jfstool"},
	} {
		out, stderr, code := jfstool(c.stdin, append([]string{"-image", img}, c.args...)...)
		if code == 0 && out != c.want || code != 0 && !strings.Contains(stderr, c.want) || code != c.code {
			t.Errorf("jfstool %v: exit %d, stdout %q, stderr %q; want exit %d and %q", c.args, code, out, stderr, c.code, c.want)
		}
	}
	if _, stderr, code := jfstool("", "stat"); code != 2 || !strings.Contains(stderr, "Usage of jfstool") {
		t.Errorf("jfstool stat without -image: exit %d, stderr %q; want exit 2 with usage", code, stderr)
	}
}

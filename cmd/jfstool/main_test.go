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
// and an unknown subcommand or a missing image file exits 1 naming it.
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
	missing := filepath.Join(t.TempDir(), "none.img")
	if _, stderr, code := jfstool("", "-image", missing, "ls"); code != 1 || !strings.Contains(stderr, "no image at "+missing) {
		t.Errorf("jfstool ls on a missing image: exit %d, stderr %q; want exit 1 naming it", code, stderr)
	}
	if _, stderr, code := jfstool("", "stat"); code != 2 || !strings.Contains(stderr, "Usage of jfstool") {
		t.Errorf("jfstool stat without -image: exit %d, stderr %q; want exit 2 with usage", code, stderr)
	}
}

// put, cat and rm take exactly one file name and the other subcommands
// none. Anything left over is a usage error (exit 2) that touches nothing:
// flag parsing stops at the file name, so "put a -nosuch" used to write a
// and drop the flag, and "ls extra" listed the image.
func TestRejectsStrayArguments(t *testing.T) {
	img := filepath.Join(t.TempDir(), "fs.img")
	if _, stderr, code := jfstool("", "-image", img, "mkfs", "-blocks", "4096"); code != 0 {
		t.Fatalf("mkfs: exit %d, stderr %q", code, stderr)
	}
	for _, c := range []struct {
		args  []string
		extra string
	}{
		{[]string{"ls", "extra"}, "extra"},
		{[]string{"fsck", "extra"}, "extra"},
		{[]string{"stat", "extra"}, "extra"},
		{[]string{"cat", "a", "b"}, "b"},
		{[]string{"rm", "a", "b"}, "b"},
		{[]string{"put", "a", "-nosuch"}, "-nosuch"},
		{[]string{"mkfs", "-blocks", "8192", "extra"}, "extra"},
	} {
		_, stderr, code := jfstool("data\n", append([]string{"-image", img}, c.args...)...)
		if want := `unexpected argument "` + c.extra + `"`; code != 2 || !strings.Contains(stderr, want) {
			t.Errorf("jfstool %v: exit %d, stderr %q; want exit 2 naming %s", c.args, code, stderr, want)
		}
	}
	if out, _, code := jfstool("", "-image", img, "ls"); code != 0 || out != "" {
		t.Errorf("ls after the rejected put: exit %d, stdout %q; want an empty image", code, out)
	}
	if out, _, _ := jfstool("", "-image", img, "stat"); !strings.HasPrefix(out, "blocks: 4096 ") {
		t.Errorf("stat after the rejected mkfs: %q; want the 4096-block image untouched", out)
	}
}

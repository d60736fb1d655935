package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// goldenRows pins dbbench at seed 1: each testbed scenario, quiet and
// under the paper's 650 Hz tone, for half a virtual second. A row's
// stdout must equal testdata/<name>.golden and its exit status code. A
// run that exits 0 saves an image that must hash to image; the attacked
// runs crash the database, exit 1 and save none (image "").
var goldenRows = []struct {
	name  string
	args  []string
	code  int
	image string // hex SHA-256 of the saved -image, "" for none
}{
	{"scenario1", []string{"-scenario", "1", "-runtime", "0.5"}, 0, "4730db936ab0878ded916d2fa4474116e8ced550f7ca5edf9f2922e2ee96073d"},
	{"scenario1-650hz", []string{"-scenario", "1", "-runtime", "0.5", "-freq", "650"}, 1, ""},
	{"scenario2", []string{"-scenario", "2", "-runtime", "0.5"}, 0, "4730db936ab0878ded916d2fa4474116e8ced550f7ca5edf9f2922e2ee96073d"},
	{"scenario2-650hz", []string{"-scenario", "2", "-runtime", "0.5", "-freq", "650"}, 1, ""},
	{"scenario3", []string{"-scenario", "3", "-runtime", "0.5"}, 0, "4730db936ab0878ded916d2fa4474116e8ced550f7ca5edf9f2922e2ee96073d"},
	{"scenario3-650hz", []string{"-scenario", "3", "-runtime", "0.5", "-freq", "650"}, 1, ""},
}

// TestGoldenOutputs runs every row on a fresh image path and compares its
// stdout, exit status and saved image with the pins; a failing row prints
// the command that regenerates them.
func TestGoldenOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are generated on amd64; on %s the compiler may fuse multiply-add, so floats can round differently", runtime.GOARCH)
	}
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			golden := filepath.Join("testdata", row.name+".golden")
			regen := "img=$(mktemp -u); go run ./cmd/dbbench " + strings.Join(row.args, " ") +
				" -image $img > cmd/dbbench/" + golden + "; echo exit $?; sha256sum $img"
			img := filepath.Join(t.TempDir(), "disk.img")
			stdout, stderr, code := dbbench(append(append([]string(nil), row.args...), "-image", img)...)
			if code != row.code {
				t.Errorf("exit %d, want %d; stderr %q", code, row.code, stderr)
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v; regenerate with:\n  %s", err, regen)
			}
			if stdout != string(want) {
				t.Errorf("stdout differs from %s:\n got %q\nwant %q\nregenerate with:\n  %s", golden, stdout, want, regen)
			}
			data, err := os.ReadFile(img)
			switch {
			case row.image == "" && !os.IsNotExist(err):
				t.Errorf("saved an image (err %v), want none", err)
			case row.image == "":
			case err != nil:
				t.Fatal(err)
			default:
				if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != row.image {
					t.Errorf("saved image SHA-256 %x, want %s; regenerate with:\n  %s", sum, row.image, regen)
				}
			}
		})
	}
}

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

// goldenRows pins fiosim at seed 1: each testbed scenario, quiet and under
// the paper's 650 Hz tone, for half a virtual second. A row's stdout must
// equal testdata/<name>.golden and the image the run saves must hash to
// image.
var goldenRows = []struct {
	name  string
	args  []string
	image string // hex SHA-256 of the saved -image
}{
	{"scenario1", []string{"-scenario", "1", "-runtime", "0.5"}, "47c5a58dcab2dc8971dffa72495ca4429d9ac66717fc29c608d2a5346a9ae4ce"},
	{"scenario1-650hz", []string{"-scenario", "1", "-runtime", "0.5", "-freq", "650"}, "18a7c581ca821d9cff88419d0ad6c98381114ea5de4721e160ee5eec9d38f010"},
	{"scenario2", []string{"-scenario", "2", "-runtime", "0.5"}, "47c5a58dcab2dc8971dffa72495ca4429d9ac66717fc29c608d2a5346a9ae4ce"},
	{"scenario2-650hz", []string{"-scenario", "2", "-runtime", "0.5", "-freq", "650"}, "18a7c581ca821d9cff88419d0ad6c98381114ea5de4721e160ee5eec9d38f010"},
	{"scenario3", []string{"-scenario", "3", "-runtime", "0.5"}, "47c5a58dcab2dc8971dffa72495ca4429d9ac66717fc29c608d2a5346a9ae4ce"},
	{"scenario3-650hz", []string{"-scenario", "3", "-runtime", "0.5", "-freq", "650"}, "18a7c581ca821d9cff88419d0ad6c98381114ea5de4721e160ee5eec9d38f010"},
}

// TestGoldenOutputs runs every row on a fresh image path and compares its
// stdout and saved image with the pins; a failing row prints the command
// that regenerates both.
func TestGoldenOutputs(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are generated on amd64; on %s the compiler may fuse multiply-add, so floats can round differently", runtime.GOARCH)
	}
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			golden := filepath.Join("testdata", row.name+".golden")
			regen := "img=$(mktemp -u) && go run ./cmd/fiosim " + strings.Join(row.args, " ") +
				" -image $img > cmd/fiosim/" + golden + " && sha256sum $img"
			img := filepath.Join(t.TempDir(), "disk.img")
			stdout, stderr, code := fiosim(append(append([]string(nil), row.args...), "-image", img)...)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v; regenerate with:\n  %s", err, regen)
			}
			if stdout != string(want) {
				t.Errorf("stdout differs from %s:\n got %q\nwant %q\nregenerate with:\n  %s", golden, stdout, want, regen)
			}
			data, err := os.ReadFile(img)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != row.image {
				t.Errorf("saved image SHA-256 %x, want %s; regenerate with:\n  %s", sum, row.image, regen)
			}
		})
	}
}

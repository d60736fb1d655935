package blockdev

import (
	"errors"
	"fmt"
	"testing"

	"deepnote/internal/hdd"
)

// attackedDisk is a disk whose drive fails every access: a point-blank
// 650 Hz tone knocks the heads off track until the retry budget runs out.
func attackedDisk(t testing.TB) *Disk {
	t.Helper()
	d, _ := newDisk(t)
	d.drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	return d
}

// TestIOErrorText: a failed ReadAt, WriteAt or Flush is still an ErrIO,
// and prints exactly what the eager fmt.Errorf form printed.
func TestIOErrorText(t *testing.T) {
	d := attackedDisk(t)
	cases := []struct {
		name string
		do   func() error
		want string
	}{
		{"read", func() error { _, err := d.ReadAt(make([]byte, 4096), 8192); return err },
			fmt.Errorf("%w: read %d@%d: %v", ErrIO, 4096, 8192, hdd.ErrMediaTimeout).Error()},
		{"write", func() error { _, err := d.WriteAt(make([]byte, 512), 1<<20); return err },
			fmt.Errorf("%w: write %d@%d: %v", ErrIO, 512, 1<<20, hdd.ErrMediaTimeout).Error()},
		{"flush", d.Flush,
			fmt.Errorf("%w: flush: %v", ErrIO, hdd.ErrMediaTimeout).Error()},
	}
	for _, tc := range cases {
		err := tc.do()
		if !errors.Is(err, ErrIO) {
			t.Fatalf("%s: err = %v, want ErrIO", tc.name, err)
		}
		if got := err.Error(); got != tc.want {
			t.Fatalf("%s: Error() = %q, want %q", tc.name, got, tc.want)
		}
	}
	if want := "blockdev: I/O error (errno -5): read 4096@8192: hdd: media access timed out after retries"; cases[0].want != want {
		t.Fatalf("reference read text drifted: %q", cases[0].want)
	}
}

// TestFailedReadAllocs: a failed ReadAt allocates at most its error
// value; the message is built only if someone prints it.
func TestFailedReadAllocs(t *testing.T) {
	d := attackedDisk(t)
	p := make([]byte, 4096)
	avg := testing.AllocsPerRun(200, func() {
		if _, err := d.ReadAt(p, 0); err == nil {
			t.Fatal("read under attack succeeded")
		}
	})
	if avg > 1 {
		t.Fatalf("failed ReadAt allocated %.1f times, want at most 1", avg)
	}
}

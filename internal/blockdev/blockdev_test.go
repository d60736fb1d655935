package blockdev

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"deepnote/internal/hdd"
	"deepnote/internal/simclock"
)

func newDisk(t testing.TB) (*Disk, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 3)
	if err != nil {
		t.Fatal(err)
	}
	return NewDisk(drive), clock
}

func TestReadBackWritten(t *testing.T) {
	d, _ := newDisk(t)
	data := []byte("deep note underwater acoustic attack")
	if _, err := d.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q != %q", got, data)
	}
}

func TestUnwrittenReadsZero(t *testing.T) {
	d, _ := newDisk(t)
	got := make([]byte, 64)
	for i := range got {
		got[i] = 0xFF
	}
	if _, err := d.ReadAt(got, 1e6); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %x, want 0", i, b)
		}
	}
}

func TestWriteSpanningChunks(t *testing.T) {
	d, _ := newDisk(t)
	data := bytes.Repeat([]byte{0xAB}, 200000) // spans several 64 KiB chunks
	off := int64(chunkSize - 777)
	if _, err := d.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := d.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-chunk round trip mismatch")
	}
}

func TestRoundTripProperty(t *testing.T) {
	d, _ := newDisk(t)
	prop := func(data []byte, offRaw uint32) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(offRaw)
		if _, err := d.WriteAt(data, off); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := d.ReadAt(got, off); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeChecks(t *testing.T) {
	d, _ := newDisk(t)
	size := d.Size()
	for _, tc := range []struct {
		name string
		off  int64
		n    int
		ok   bool
	}{
		{"negative offset", -1, 16, false},
		{"past end", size - 8, 16, false},
		{"ends at end", size - 16, 16, true},
		{"at end, empty", size, 0, true},
		{"beyond end, empty", size + 1, 0, false},
		// off+n overflows int64 for these; the request must still be
		// rejected, not wrap to a small sum and pass.
		{"near MaxInt64", math.MaxInt64 - 100, 4096, false},
		{"at MaxInt64", math.MaxInt64, 1, false},
		{"MaxInt64 minus length", math.MaxInt64 - 4095, 4096, false},
	} {
		buf := make([]byte, tc.n)
		_, rerr := d.ReadAt(buf, tc.off)
		_, werr := d.WriteAt(buf, tc.off)
		for op, err := range map[string]error{"ReadAt": rerr, "WriteAt": werr} {
			if (err == nil) != tc.ok {
				t.Errorf("%s: %s(%d bytes @ %d) err = %v, want ok=%v", tc.name, op, tc.n, tc.off, err, tc.ok)
			}
		}
	}
	if len(d.data) != 0 {
		t.Fatalf("all-zero requests stored %d chunks", len(d.data))
	}
}

func TestClose(t *testing.T) {
	d, _ := newDisk(t)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadAt(make([]byte, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close: %v", err)
	}
	if _, err := d.WriteAt(make([]byte, 8), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if err := d.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("flush after close: %v", err)
	}
}

func TestIOErrorUnderHeavyVibration(t *testing.T) {
	d, _ := newDisk(t)
	d.drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	_, err := d.WriteAt(make([]byte, 4096), 0)
	if !errors.Is(err, ErrIO) {
		t.Fatalf("expected ErrIO, got %v", err)
	}
	if d.Stats().WriteErrs != 1 {
		t.Fatalf("write errors = %d, want 1", d.Stats().WriteErrs)
	}
}

func TestFlushUnderAttackFails(t *testing.T) {
	d, _ := newDisk(t)
	d.drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	if err := d.Flush(); !errors.Is(err, ErrIO) {
		t.Fatalf("expected ErrIO from flush, got %v", err)
	}
	s := d.Stats()
	if s.FlushOps != 1 || s.FlushErrs != 1 {
		t.Fatalf("flush stats = %+v", s)
	}
}

func TestStatsAccumulate(t *testing.T) {
	d, _ := newDisk(t)
	d.WriteAt(make([]byte, 4096), 0)
	d.ReadAt(make([]byte, 8192), 0)
	d.Flush()
	s := d.Stats()
	if s.WriteOps != 1 || s.WriteBytes != 4096 {
		t.Fatalf("write stats: %+v", s)
	}
	if s.ReadOps != 1 || s.ReadBytes != 8192 {
		t.Fatalf("read stats: %+v", s)
	}
	if s.TotalReadLatency <= 0 || s.TotalWriteLatency <= 0 {
		t.Fatalf("latency stats: %+v", s)
	}
}

func TestTimeAdvancesWithIO(t *testing.T) {
	d, clock := newDisk(t)
	t0 := clock.Now()
	d.WriteAt(make([]byte, 4096), 0)
	if !clock.Now().After(t0) {
		t.Fatal("I/O did not consume virtual time")
	}
}

func TestEIOErrnoConstant(t *testing.T) {
	if EIOErrno != -5 {
		t.Fatal("EIO errno must be -5 to match the paper's JBD signature")
	}
}

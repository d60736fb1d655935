package hdd

import (
	"testing"

	"deepnote/internal/simclock"
)

func newIntegrityDrive(t *testing.T, prob float64) *Drive {
	t.Helper()
	m := Barracuda500()
	m.AdjacentCorruptionProb = prob
	clock := simclock.NewVirtual()
	d, err := NewDrive(m, clock, 51)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestIntegrityDisabledByDefault(t *testing.T) {
	clock := simclock.NewVirtual()
	d, err := NewDrive(Barracuda500(), clock, 51)
	if err != nil {
		t.Fatal(err)
	}
	d.SetVibration(Vibration{Freq: 650, Amplitude: 0.13}) // marginal zone
	var off int64 = 1 << 21
	for i := 0; i < 500; i++ {
		d.Access(OpWrite, off, 4096)
		off += 4096
	}
	if d.stats.AdjacentCorruptions != 0 {
		t.Fatal("corruption occurred with the mechanism disabled")
	}
}

func TestMarginalWritesCorruptAdjacentTrack(t *testing.T) {
	d := newIntegrityDrive(t, 0.2)
	// Amplitude just under the write gate: writes succeed, but peaks sit
	// in the marginal zone.
	d.SetVibration(Vibration{Freq: 650, Amplitude: 0.13})
	var off int64 = 1 << 21
	sawCorruption := false
	for i := 0; i < 500; i++ {
		res := d.Access(OpWrite, off, 4096)
		for _, c := range res.AdjacentCorruptions {
			sawCorruption = true
			if c != off-d.model.TrackBytes && c != off+d.model.TrackBytes {
				t.Fatalf("corruption at %d not adjacent to %d", c, off)
			}
		}
		off += 4096
	}
	if !sawCorruption {
		t.Fatal("marginal writes never squeezed the adjacent track")
	}
	if d.stats.AdjacentCorruptions == 0 {
		t.Fatal("corruption counter not incremented")
	}
}

func TestQuietWritesNeverCorrupt(t *testing.T) {
	d := newIntegrityDrive(t, 1.0) // even at certainty-level probability
	var off int64 = 1 << 21
	for i := 0; i < 500; i++ {
		res := d.Access(OpWrite, off, 4096)
		if len(res.AdjacentCorruptions) != 0 {
			t.Fatal("quiet drive corrupted data")
		}
		off += 4096
	}
}

func TestReadsNeverCorrupt(t *testing.T) {
	d := newIntegrityDrive(t, 1.0)
	d.SetVibration(Vibration{Freq: 650, Amplitude: 0.2}) // marginal for reads
	var off int64 = 1 << 21
	for i := 0; i < 300; i++ {
		res := d.Access(OpRead, off, 4096)
		if len(res.AdjacentCorruptions) != 0 {
			t.Fatal("read corrupted data")
		}
		off += 4096
	}
}

func TestAdjacentOffsetEdges(t *testing.T) {
	d := newIntegrityDrive(t, 1)
	tb := d.model.TrackBytes
	if got := d.adjacentOffset(0); got != tb {
		t.Fatalf("track 0 neighbor = %d, want next track %d", got, tb)
	}
	if got := d.adjacentOffset(5 * tb); got != 4*tb {
		t.Fatalf("mid-disk neighbor = %d, want previous track", got)
	}
	m := d.model
	m.TrackBytes = 0
	clock := simclock.NewVirtual()
	d2, err := NewDrive(m, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := d2.adjacentOffset(123); got != -1 {
		t.Fatalf("zero track bytes neighbor = %d, want -1", got)
	}
}

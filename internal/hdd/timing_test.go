package hdd

import (
	"errors"
	"math"
	"testing"
	"time"

	"deepnote/internal/simclock"
	"deepnote/internal/units"
)

// marginalModel is a drive tuned so individual attempt failures are common
// but op failures are cheap to observe: a small retry budget keeps failed
// ops short and makes failure-path accounting visible.
func marginalModel() Model {
	m := Barracuda500()
	m.MaxRetries = 2
	return m
}

// TestZonedInnerOffsetsFailMoreOften is the observable of the zoned
// hold-window fix: at equal excitation, an inner-track chunk transfers
// slower, holds track longer, and therefore fails more often than an
// outer-track chunk. Before the fix the hold window ignored zoning, making
// inner and outer accesses statistically identical.
func TestZonedInnerOffsetsFailMoreOften(t *testing.T) {
	m := marginalModel()
	vib := Vibration{Freq: 1200 * units.Hz, Amplitude: 0.20}

	errorsAt := func(offset int64) int64 {
		clock := simclock.NewVirtual()
		d, err := NewDrive(m, clock, 7)
		if err != nil {
			t.Fatal(err)
		}
		d.SetVibration(vib)
		fails := int64(0)
		for i := 0; i < 400; i++ {
			if res := d.Access(OpWrite, offset, ChunkBytes); res.Err != nil {
				if !errors.Is(res.Err, ErrMediaTimeout) {
					t.Fatalf("unexpected error at offset %d: %v", offset, res.Err)
				}
				fails++
			}
		}
		return fails
	}

	outer := errorsAt(0)
	inner := errorsAt(m.CapacityBytes - ChunkBytes)
	if inner <= outer {
		t.Fatalf("inner-track accesses must fail more often than outer at equal excitation: inner=%d outer=%d", inner, outer)
	}
}

// TestZonedHoldWindowMatchesZonedTransfer pins the mechanism behind the
// statistical test above: the per-chunk hold window must stretch with the
// zoned transfer time, so inner windows are strictly wider.
func TestZonedHoldWindowMatchesZonedTransfer(t *testing.T) {
	m := Barracuda500()
	outer := m.TransferTimeAt(0, ChunkBytes)
	inner := m.TransferTimeAt(m.CapacityBytes-ChunkBytes, ChunkBytes)
	if inner <= outer {
		t.Fatalf("zoned transfer must be slower at the inner diameter: inner=%v outer=%v", inner, outer)
	}
}

// TestFailureLatencyChargesOnlyAccruedWork asserts the ErrMediaTimeout
// accounting fix: a failed op pays its fixed positioning cost, the retries
// it actually burned, and the transfer of chunks it actually completed —
// never the media time of chunks after the failing one.
func TestFailureLatencyChargesOnlyAccruedWork(t *testing.T) {
	m := Barracuda500()
	const length = 16 * ChunkBytes

	// Servo lock is lost at this amplitude, so the very first chunk burns
	// the whole retry budget deterministically: the op must cost exactly
	// fixed positioning plus MaxRetries retry slots, with zero transfer.
	clock := simclock.NewVirtual()
	d, err := NewDrive(m, clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetVibration(Vibration{Freq: 800 * units.Hz, Amplitude: m.ServoLockFrac})
	res := d.Access(OpWrite, 0, length)
	if !errors.Is(res.Err, ErrMediaTimeout) {
		t.Fatalf("expected media timeout under servo lock loss, got %v", res.Err)
	}
	fixed := m.WriteOverhead + m.SeekTime(0) + m.RevolutionPeriod()/8
	want := fixed + time.Duration(m.MaxRetries)*m.RetryWrite
	if res.Latency != want {
		t.Fatalf("first-chunk timeout latency = %v, want %v (fixed %v + %d retries); transfer for unattempted chunks must not be charged",
			res.Latency, want, fixed, m.MaxRetries)
	}
	if full := m.TransferTime(length); res.Latency >= want+full {
		t.Fatalf("first-chunk timeout still charges whole-request transfer: %v", res.Latency)
	}
}

// TestFirstChunkTimeoutCheaperThanLastChunk compares failure latencies by
// failure position: among failed ops that burned exactly one retry budget
// (so their retry cost is identical), one that died on a later chunk must
// have paid for the chunks it completed first and so must cost strictly
// more than one that died on chunk zero.
func TestFirstChunkTimeoutCheaperThanLastChunk(t *testing.T) {
	m := marginalModel()
	const length = 16 * ChunkBytes
	vib := Vibration{Freq: 900 * units.Hz, Amplitude: 0.17}
	budgetOnly := time.Duration(m.MaxRetries) * m.RetryWrite

	var minLat, maxLat time.Duration
	seen := 0
	for seed := int64(0); seed < 400; seed++ {
		clock := simclock.NewVirtual()
		d, err := NewDrive(m, clock, seed)
		if err != nil {
			t.Fatal(err)
		}
		d.SetVibration(vib)
		res := d.Access(OpWrite, 0, length)
		if res.Err == nil || res.Retries != m.MaxRetries {
			continue
		}
		// Same retry spend; latency differences are purely completed-chunk
		// transfer, i.e. where in the op the timeout happened.
		lat := res.Latency - budgetOnly
		if seen == 0 || lat < minLat {
			minLat = lat
		}
		if seen == 0 || lat > maxLat {
			maxLat = lat
		}
		seen++
	}
	if seen < 10 {
		t.Fatalf("marginal excitation produced only %d single-budget failures; test needs more", seen)
	}
	if minLat >= maxLat {
		t.Fatalf("all timeouts cost the same (%v) regardless of failing position; failure latency must accrue per completed chunk", minLat)
	}
	chunk := m.TransferTime(ChunkBytes)
	if maxLat-minLat < chunk {
		t.Fatalf("latency spread %v between earliest and latest timeout is smaller than one chunk transfer %v", maxLat-minLat, chunk)
	}
}

// TestMaxSeekRate pins the actuator's back-and-forth repetition limit —
// the ceiling the exfil modulator's seek-pattern dictionary is validated
// against: one period is two seeks of the stroke.
func TestMaxSeekRate(t *testing.T) {
	m := Barracuda500()
	for _, stroke := range []int64{0, m.TrackBytes, m.CapacityBytes / 2} {
		want := 1 / (2 * m.SeekTime(stroke).Seconds())
		if got := m.MaxSeekRate(stroke); math.Abs(got-want) > 1e-9 {
			t.Errorf("stroke %d: MaxSeekRate %.3f, want %.3f", stroke, got, want)
		}
	}
	// Longer strokes take longer per seek, so the sustainable rate must
	// fall monotonically, and the track-to-track rate must clear the
	// modulator's default dictionary (390 Hz seek rate for the 780 Hz
	// tone at harmonic 2).
	short, long := m.MaxSeekRate(m.TrackBytes), m.MaxSeekRate(m.CapacityBytes)
	if short <= long {
		t.Errorf("rate must fall with stroke: track %.1f, full %.1f", short, long)
	}
	if short < 390 {
		t.Errorf("track-to-track rate %.1f cannot carry the default dictionary", short)
	}
}

package hdd

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"deepnote/internal/simclock"
)

func newTestDrive(t *testing.T) (*Drive, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual()
	d, err := NewDrive(Barracuda500(), clock, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d, clock
}

func TestModelValidate(t *testing.T) {
	m := Barracuda500()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := m
	bad.WriteFaultFrac = 0.5 // looser than read: nonsense
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error when write tolerance looser than read")
	}
	bad = m
	bad.CapacityBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero capacity")
	}
	bad = m
	bad.MaxRetries = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero retry budget")
	}
	bad = m
	bad.PressureGain = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero pressure gain")
	}
}

func TestNewDriveRejectsNilClock(t *testing.T) {
	if _, err := NewDrive(Barracuda500(), nil, 1); err == nil {
		t.Fatal("expected error for nil clock")
	}
}

func TestRevolutionPeriod7200RPM(t *testing.T) {
	m := Barracuda500()
	want := 8333 * time.Microsecond
	got := m.RevolutionPeriod()
	if got < want-10*time.Microsecond || got > want+10*time.Microsecond {
		t.Fatalf("RevolutionPeriod = %v, want ≈%v", got, want)
	}
}

func TestServoSensitivityShape(t *testing.T) {
	m := Barracuda500()
	// Well below crossover the servo rejects almost everything.
	if s := m.ServoSensitivity(50); s > 0.01 {
		t.Fatalf("sensitivity at 50 Hz = %v, want ≈0", s)
	}
	// Well above crossover it passes vibration through (≈1).
	if s := m.ServoSensitivity(5000); s < 0.9 || s > 1.3 {
		t.Fatalf("sensitivity at 5 kHz = %v, want ≈1", s)
	}
	if s := m.ServoSensitivity(0); s != 0 {
		t.Fatalf("sensitivity at 0 = %v, want 0", s)
	}
	// Monotone-ish rise through the crossover region.
	if m.ServoSensitivity(200) >= m.ServoSensitivity(650) {
		t.Fatal("sensitivity should grow from 200 Hz to 650 Hz")
	}
}

func TestOffTrackZeroWithoutExcitation(t *testing.T) {
	m := Barracuda500()
	if got := m.OffTrack(650, 0); got != 0 {
		t.Fatalf("OffTrack(0 Pa) = %v, want 0", got)
	}
	if got := m.OffTrack(650, -3); got != 0 {
		t.Fatalf("OffTrack(neg) = %v, want 0", got)
	}
}

func TestOffTrackBandpassShape(t *testing.T) {
	m := Barracuda500()
	// With flat excitation, the off-track response must peak in the
	// paper's vulnerable band and fall off on both sides.
	low := m.OffTrack(100, 10)
	mid := m.OffTrack(700, 10)
	high := m.OffTrack(8000, 10)
	if mid <= low*3 {
		t.Fatalf("mid-band response %v should dominate low-frequency %v", mid, low)
	}
	if mid <= high {
		t.Fatalf("mid-band response %v should exceed high-frequency %v", mid, high)
	}
}

func TestQuietDriveThroughputMatchesPaper(t *testing.T) {
	// No attack: sequential 4 KB reads at ≈18.0 MB/s, writes at ≈22.7 MB/s
	// (the paper's Table 1 "No Attack" row).
	for _, tc := range []struct {
		op   Op
		want float64 // MB/s
	}{
		{OpRead, 18.0},
		{OpWrite, 22.7},
	} {
		d, clock := newTestDrive(t)
		const bs = 4096
		const ops = 2000
		start := clock.Now()
		var off int64
		// Prime sequentiality: first op pays a seek.
		for i := 0; i < ops; i++ {
			res := d.Access(tc.op, off, bs)
			if res.Err != nil {
				t.Fatalf("%v: unexpected error %v", tc.op, res.Err)
			}
			off += bs
		}
		secs := clock.Now().Sub(start).Seconds()
		mbps := float64(bs*ops) / 1e6 / secs
		if math.Abs(mbps-tc.want)/tc.want > 0.08 {
			t.Errorf("%v: quiet throughput = %.1f MB/s, want ≈%.1f", tc.op, mbps, tc.want)
		}
	}
}

func TestQuietLatencyMatchesPaper(t *testing.T) {
	// Paper Table 1: ≈0.2 ms per op for both read and write.
	d, _ := newTestDrive(t)
	d.Access(OpRead, 0, 4096) // absorb initial seek
	res := d.Access(OpRead, 4096, 4096)
	if ms := res.Latency.Seconds() * 1000; ms < 0.1 || ms > 0.35 {
		t.Fatalf("sequential read latency = %.3f ms, want ≈0.2", ms)
	}
}

func TestRandomAccessPaysSeek(t *testing.T) {
	d, _ := newTestDrive(t)
	d.Access(OpRead, 0, 4096)
	seq := d.Access(OpRead, 4096, 4096)
	rnd := d.Access(OpRead, 1e9, 4096)
	if rnd.Latency < seq.Latency+5*time.Millisecond {
		t.Fatalf("random access %v should pay seek over sequential %v", rnd.Latency, seq.Latency)
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	d, _ := newTestDrive(t)
	if res := d.Access(OpRead, -1, 4096); !errors.Is(res.Err, ErrOutOfRange) {
		t.Fatalf("negative offset: %v", res.Err)
	}
	if res := d.Access(OpRead, 0, 0); !errors.Is(res.Err, ErrOutOfRange) {
		t.Fatalf("zero length: %v", res.Err)
	}
	cap := d.Capacity()
	if res := d.Access(OpWrite, cap-100, 4096); !errors.Is(res.Err, ErrOutOfRange) {
		t.Fatalf("overflow: %v", res.Err)
	}
}

func TestHeavyVibrationTimesOutWrites(t *testing.T) {
	d, _ := newTestDrive(t)
	d.SetVibration(Vibration{Freq: 650, Amplitude: 3.0}) // 20x write threshold
	res := d.Access(OpWrite, 0, 4096)
	if !errors.Is(res.Err, ErrMediaTimeout) {
		t.Fatalf("expected media timeout, got %v", res.Err)
	}
	if res.Retries != d.model.MaxRetries {
		t.Fatalf("retries = %d, want %d", res.Retries, d.model.MaxRetries)
	}
	if d.stats.WriteErrors != 1 {
		t.Fatalf("write errors = %d, want 1", d.stats.WriteErrors)
	}
}

func TestWritesFailBeforeReads(t *testing.T) {
	// At an amplitude between the write and read thresholds, writes
	// struggle while reads mostly sail through — the paper's core
	// asymmetry (§4.1).
	const ops = 4000
	firstTry := func(op Op) float64 {
		d, _ := newTestDrive(t)
		d.SetVibration(Vibration{Freq: 650, Amplitude: 0.2}) // above 0.15 write, below 0.26 read
		clean := 0
		for i := 0; i < ops; i++ {
			if res := d.Access(op, 0, 4096); res.Err == nil && res.Retries == 0 {
				clean++
			}
		}
		return float64(clean) / ops
	}
	pw, pr := firstTry(OpWrite), firstTry(OpRead)
	if pw >= pr {
		t.Fatalf("write first-try success %v should be below read %v", pw, pr)
	}
	if pr < 0.9 {
		t.Fatalf("read first-try success %v should stay high below read threshold", pr)
	}
}

func TestMaxAbsSinOver(t *testing.T) {
	cases := []struct {
		phase, width, want float64
	}{
		{0, math.Pi, 1},                        // covers a crest by width
		{0, 0.1, math.Sin(0.1)},                // rising edge
		{math.Pi / 2, 0.1, 1},                  // starts on the crest
		{math.Pi/2 - 0.05, 0.2, 1},             // crosses the crest
		{math.Pi - 0.1, 0.05, math.Sin(0.1)},   // descending near zero, |sin|
		{2*math.Pi - 0.1, 0.05, math.Sin(0.1)}, // wraps the 2π boundary
		{math.Pi * 0.75, math.Pi * 0.8, 1},     // wraps into the next crest
	}
	for i, c := range cases {
		got := maxAbsSinOver(c.phase, c.width)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("case %d: maxAbsSinOver(%v, %v) = %v, want %v", i, c.phase, c.width, got, c.want)
		}
	}
}

func TestMaxAbsSinOverProperty(t *testing.T) {
	// The analytic max must match a dense numeric scan.
	prop := func(pRaw, wRaw uint16) bool {
		phase := float64(pRaw) / 65535 * 2 * math.Pi
		width := float64(wRaw) / 65535 * math.Pi * 1.2
		got := maxAbsSinOver(phase, width)
		max := 0.0
		for i := 0; i <= 400; i++ {
			v := math.Abs(math.Sin(phase + width*float64(i)/400))
			if v > max {
				max = v
			}
		}
		return got >= max-1e-6 && got <= max+5e-3
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestShockSensorParksHeads(t *testing.T) {
	d, clock := newTestDrive(t)
	d.SetVibration(Vibration{Freq: 20000, Amplitude: 0.1})
	if d.stats.ShockParks != 1 {
		t.Fatalf("parks = %d, want 1", d.stats.ShockParks)
	}
	res := d.Access(OpRead, 0, 4096)
	if !errors.Is(res.Err, ErrHeadsParked) {
		t.Fatalf("expected parked error, got %v", res.Err)
	}
	// After the park duration the drive recovers.
	clock.Sleep(d.model.ParkDuration + time.Millisecond)
	d.SetVibration(Quiet())
	if res := d.Access(OpRead, 0, 4096); res.Err != nil {
		t.Fatalf("drive did not recover after parking: %v", res.Err)
	}
}

// TestShockSensorParkAtClockCeiling pins parking where the clock
// saturates: a park that would end past math.MaxInt64 ns never ends,
// and one that ends exactly there ends when the clock reaches it.
func TestShockSensorParkAtClockCeiling(t *testing.T) {
	for _, tc := range []struct {
		name    string
		margin  time.Duration // clock headroom below the ceiling at the trigger
		wantErr error
	}{
		{"past the ceiling", time.Millisecond, ErrHeadsParked},
		{"at the ceiling", Barracuda500().ParkDuration, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, clock := newTestDrive(t)
			clock.Sleep(time.Duration(math.MaxInt64) - tc.margin)
			d.SetVibration(Vibration{Freq: 20000, Amplitude: 0.1})
			clock.Sleep(time.Duration(math.MaxInt64)) // saturates
			if clock.Nanos() != math.MaxInt64 {
				t.Fatalf("clock at %d ns, want the ceiling", clock.Nanos())
			}
			d.SetVibration(Quiet())
			if res := d.Access(OpRead, 0, 4096); !errors.Is(res.Err, tc.wantErr) {
				t.Fatalf("access at the ceiling: %v, want %v", res.Err, tc.wantErr)
			}
		})
	}
}

func TestShockSensorIgnoresAudibleBand(t *testing.T) {
	d, _ := newTestDrive(t)
	d.SetVibration(Vibration{Freq: 650, Amplitude: 5})
	if d.stats.ShockParks != 0 {
		t.Fatal("audible-band vibration must not trip the shock sensor")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, time.Duration) {
		clock := simclock.NewVirtual()
		d, err := NewDrive(Barracuda500(), clock, 42)
		if err != nil {
			t.Fatal(err)
		}
		d.SetVibration(Vibration{Freq: 650, Amplitude: 0.18})
		start := clock.Now()
		var off int64
		for i := 0; i < 500; i++ {
			d.Access(OpWrite, off, 4096)
			off += 4096
		}
		return d.stats, clock.Now().Sub(start)
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Fatalf("nondeterministic: %+v/%v vs %+v/%v", s1, t1, s2, t2)
	}
}

func TestVibrationAccessorRoundTrip(t *testing.T) {
	d, _ := newTestDrive(t)
	v := Vibration{Freq: 650, Amplitude: 0.3}
	d.SetVibration(v)
	if got := d.Vibration(); got != v {
		t.Fatalf("Vibration() = %+v, want %+v", got, v)
	}
}

func TestStatsCounts(t *testing.T) {
	d, _ := newTestDrive(t)
	d.Access(OpRead, 0, 4096)
	d.Access(OpWrite, 4096, 8192)
	s := d.stats
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("ops: %+v", s)
	}
	if s.BytesRead != 4096 || s.BytesWritten != 8192 {
		t.Fatalf("bytes: %+v", s)
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("Op.String misbehaves")
	}
}

func TestRetryLatencyGrowsUnderModerateVibration(t *testing.T) {
	// Paper Table 1 at 15 cm: write latency rises to ≈4 ms while reads
	// stay at 0.2 ms. Under moderate vibration, mean write latency should
	// exceed the quiet value by an order of magnitude.
	d, clock := newTestDrive(t)
	d.Access(OpWrite, 0, 4096)
	d.SetVibration(Vibration{Freq: 650, Amplitude: 0.16})
	start := clock.Now()
	var off int64 = 4096
	n := 300
	fails := 0
	for i := 0; i < n; i++ {
		res := d.Access(OpWrite, off, 4096)
		if res.Err != nil {
			fails++
		}
		off += 4096
	}
	mean := clock.Now().Sub(start).Seconds() * 1000 / float64(n)
	if mean < 0.5 {
		t.Fatalf("mean write latency under vibration = %.3f ms, want ≥0.5", mean)
	}
	if fails == n {
		t.Fatal("moderate vibration should not kill all writes")
	}
}

func TestTransferTime(t *testing.T) {
	m := Barracuda500()
	got := m.TransferTime(120e6)
	if math.Abs(got.Seconds()-1) > 1e-9 {
		t.Fatalf("TransferTime(120MB) = %v, want 1s", got)
	}
}

package hdd

import (
	"testing"

	"deepnote/internal/simclock"
	"deepnote/internal/units"
)

// TestAccessHoldWindowZeroAlloc is the allocation-regression gate for
// the drive's hot path: a chunked access under vibration — per-chunk
// hold-window evaluation, retries included — must not allocate, so the
// facility-scale serving engine's per-op cost on this layer is pure
// compute. Runs below and above the read fault threshold (the retry
// regime) and past servo lock.
func TestAccessHoldWindowZeroAlloc(t *testing.T) {
	model := Barracuda500()
	cases := []struct {
		name string
		vib  Vibration
	}{
		{"quiet", Quiet()},
		{"held", Vibration{Freq: 650 * units.Hz, Amplitude: model.ReadFaultFrac * 0.8}},
		{"retrying", Vibration{Freq: 650 * units.Hz, Amplitude: model.ReadFaultFrac * 1.1}},
		{"servo-locked", Vibration{Freq: 650 * units.Hz, Amplitude: model.ServoLockFrac * 1.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDrive(model, simclock.NewVirtual(), 7)
			if err != nil {
				t.Fatal(err)
			}
			d.SetVibration(tc.vib)
			d.Access(OpRead, 0, 64<<10) // warm any lazy state
			avg := testing.AllocsPerRun(200, func() {
				res := d.Access(OpRead, 0, 64<<10)
				if res.Err != nil && res.Err != ErrMediaTimeout {
					t.Fatalf("access failed: %v", res.Err)
				}
			})
			if avg != 0 {
				t.Fatalf("Access allocated %.1f times per op, want 0", avg)
			}
		})
	}
}

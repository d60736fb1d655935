package hdd

import (
	"testing"

	"deepnote/internal/simclock"
	"deepnote/internal/units"
)

// BenchmarkAccess times one sequential 4 KiB read on a quiet drive, under
// a tone the heads hold through, under one that forces retries, and past
// servo lock, where every access fails with the full retry budget.
func BenchmarkAccess(b *testing.B) {
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
	const span = 1 << 30
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			d, err := NewDrive(model, simclock.NewVirtual(), 7)
			if err != nil {
				b.Fatal(err)
			}
			d.SetVibration(bc.vib)
			b.ReportAllocs()
			var off int64
			for i := 0; i < b.N; i++ {
				d.Access(OpRead, off, ChunkBytes)
				off = (off + ChunkBytes) % span
			}
			b.ReportMetric(float64(d.stats.Retries)/float64(b.N), "retries/op")
		})
	}
}

package netstore

import (
	"testing"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/simclock"
	"deepnote/internal/units"
)

// BenchmarkHandleObjectShared times one request against a preloaded
// server on a simulated drive: a GET and a PUT on a quiet drive, and a
// GET on a servo-locked one, which times out.
func BenchmarkHandleObjectShared(b *testing.B) {
	model := hdd.Barracuda500()
	locked := hdd.Vibration{Freq: 650 * units.Hz, Amplitude: model.ServoLockFrac * 1.1}
	cases := []struct {
		name string
		op   Op
		vib  hdd.Vibration
	}{
		{"get", Get, hdd.Quiet()},
		{"put", Put, hdd.Quiet()},
		{"get-servo-locked", Get, locked},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			clock := simclock.NewVirtual()
			drive, err := hdd.NewDrive(model, clock, 31)
			if err != nil {
				b.Fatal(err)
			}
			s := NewServer(blockdev.NewDisk(drive), clock, Config{Objects: 64, ObjectSize: 16 << 10})
			if err := s.Preload(); err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, s.Config().ObjectSize)
			drive.SetVibration(bc.vib)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.HandleObjectShared(bc.op, i%s.Config().Objects, payload)
			}
		})
	}
}

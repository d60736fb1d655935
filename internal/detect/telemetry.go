// Telemetry synthesis: the drive-tray vibration stream the fingerprinter
// consumes. A real deployment would read an accelerometer on the tray;
// the simulation synthesizes the equivalent signal from what it already
// knows — the drive's current excitation state (the attack side of the
// acoustic chain), the ambient scenario's components, and seeded sensor
// noise — window by window, deterministic per (seed, window index).
package detect

import (
	"math"
	"math/rand"

	"deepnote/internal/hdd"
	"deepnote/internal/parallel"
	"deepnote/internal/sig"
)

// DefaultSensorSigma is the tray sensor's own noise floor in track-pitch
// fractions — matched to the Barracuda500 ambient track-misregistration
// floor, since the sensor reads the same physical displacement.
const DefaultSensorSigma = 0.012

// Synth renders consecutive telemetry windows. The returned buffer is
// reused between calls.
type Synth struct {
	sampleRate  float64
	window      int
	sensorSigma float64
	seed        int64
	w           int
	buf         []float64
	comps       []sig.AmbientComponent
}

// NewSynth builds a window renderer. sensorSigma may be 0 (an ideal,
// noiseless sensor).
func NewSynth(sampleRateHz float64, windowSamples int, sensorSigma float64, seed int64) *Synth {
	if seed == 0 {
		seed = 1
	}
	return &Synth{
		sampleRate:  sampleRateHz,
		window:      windowSamples,
		sensorSigma: sensorSigma,
		seed:        seed,
		buf:         make([]float64, windowSamples),
		comps:       make([]sig.AmbientComponent, 0, 16),
	}
}

// Windows returns how many windows have been rendered.
func (s *Synth) Windows() int { return s.w }

// Window renders the next telemetry window: the drive's excitation state
// (the attack tone), the ambient scenario, and sensor noise. The slice is
// reused — feed it before the next call.
func (s *Synth) Window(vib hdd.Vibration, amb sig.Ambient) []float64 {
	for i := range s.buf {
		s.buf[i] = 0
	}
	t0 := float64(s.w) * float64(s.window) / s.sampleRate
	dt := 1 / s.sampleRate
	if vib.Amplitude != 0 && vib.Freq > 0 {
		wv := vib.Freq.AngularVelocity()
		for i := range s.buf {
			s.buf[i] += vib.Amplitude * math.Sin(wv*(t0+float64(i)*dt))
		}
	}
	amb.RenderInto(s.w, s.sampleRate, s.buf)
	if s.sensorSigma > 0 {
		rng := rand.New(rand.NewSource(parallel.SeedFor(s.seed, s.w)))
		for i := range s.buf {
			s.buf[i] += s.sensorSigma * rng.NormFloat64()
		}
	}
	s.w++
	return s.buf
}

// Package sig is the attack-side signal toolkit: pure tones, amplitude
// envelopes, and the frequency-sweep plans an attacker uses to discover a
// victim's vulnerable band. It plays the role GNU Radio plays in the paper's
// testbed — the thing that tells the speaker what to emit.
package sig

import (
	"fmt"
	"math"

	"deepnote/internal/units"
)

// Tone is a single sine wave at a fixed frequency with a drive level
// expressed as a linear amplitude in [0, 1] relative to full scale.
type Tone struct {
	// Freq is the tone frequency.
	Freq units.Frequency
	// Amplitude is the linear drive amplitude relative to full scale,
	// clamped to [0, 1] by Normalize.
	Amplitude float64
	// Phase is the initial phase in radians.
	Phase float64
}

// NewTone returns a full-scale tone at f.
func NewTone(f units.Frequency) Tone { return Tone{Freq: f, Amplitude: 1} }

// Normalize clamps the amplitude into [0, 1] and the frequency to ≥ 0.
func (t Tone) Normalize() Tone {
	if t.Amplitude < 0 {
		t.Amplitude = 0
	}
	if t.Amplitude > 1 {
		t.Amplitude = 1
	}
	if t.Freq < 0 {
		t.Freq = 0
	}
	return t
}

// Sample returns the instantaneous signal value at time tSec.
func (t Tone) Sample(tSec float64) float64 {
	return t.Amplitude * math.Sin(t.Freq.AngularVelocity()*tSec+t.Phase)
}

// RMS returns the root-mean-square value of the tone (A/√2).
func (t Tone) RMS() float64 { return t.Amplitude / math.Sqrt2 }

// DriveDB returns the drive level in dB relative to full scale (dBFS).
// A full-scale tone is 0 dBFS; half amplitude is ≈ −6 dBFS.
func (t Tone) DriveDB() units.Decibel { return units.AmplitudeRatioDB(t.Amplitude) }

// String renders the tone.
func (t Tone) String() string {
	return fmt.Sprintf("tone(%v, %.3g FS)", t.Freq, t.Amplitude)
}

// Samples renders n samples of the tone at the given sample rate into a
// freshly allocated slice. It is used by spectrum tests and by components
// that want a concrete waveform rather than an analytic description.
func (t Tone) Samples(sampleRateHz float64, n int) []float64 {
	if n <= 0 || sampleRateHz <= 0 {
		return nil
	}
	out := make([]float64, n)
	dt := 1 / sampleRateHz
	for i := range out {
		out[i] = t.Sample(float64(i) * dt)
	}
	return out
}

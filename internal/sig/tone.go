// Package sig is the attack-side signal toolkit: pure tones, amplitude
// envelopes, and the frequency-sweep plans an attacker uses to discover a
// victim's vulnerable band. It plays the role GNU Radio plays in the paper's
// testbed — the thing that tells the speaker what to emit.
package sig

import (
	"fmt"

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

// DriveDB returns the drive level in dB relative to full scale (dBFS).
// A full-scale tone is 0 dBFS; half amplitude is ≈ −6 dBFS.
func (t Tone) DriveDB() units.Decibel { return units.AmplitudeRatioDB(t.Amplitude) }

// String renders the tone.
func (t Tone) String() string {
	return fmt.Sprintf("tone(%v, %.3g FS)", t.Freq, t.Amplitude)
}

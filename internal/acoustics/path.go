package acoustics

import (
	"math"

	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/valid"
	"deepnote/internal/water"
)

// Path is a propagation path from the speaker face to a target surface
// through a water medium. Loss is spherical spreading referenced to the
// speaker's reference distance plus frequency-dependent medium absorption:
//
//	TL(f, d) = 20·log10(d / refDist) + α(f)·d
//
// Spherical spreading dominates at tank scale (28 dB from 1 cm to 25 cm),
// which is exactly the roll-off the paper's range test exhibits; absorption
// only matters at open-water distances.
type Path struct {
	// Medium is the water the sound crosses.
	Medium water.Medium
	// Distance is the speaker-to-target distance.
	Distance units.Distance
	// SurfaceDepth, when positive, enables the Lloyd's-mirror surface
	// reflection: the water surface is a near-perfect pressure-release
	// reflector, and the image source interferes with the direct path.
	// It is the depth of both source and target below the surface.
	// Zero (the default) models the deep/absorbing-boundary case the
	// tank calibration uses.
	SurfaceDepth units.Distance
}

// surfaceFactor returns the linear pressure gain (0..2) from the surface
// image source: |1 − e^{jkΔ}| where Δ is the path difference between the
// direct ray and the surface bounce (the reflection flips phase).
func (p Path) surfaceFactor(f units.Frequency) float64 {
	if p.SurfaceDepth <= 0 {
		return 1
	}
	d := float64(p.Distance)
	h := float64(p.SurfaceDepth)
	reflected := math.Sqrt(d*d + 4*h*h)
	delta := reflected - d
	k := f.AngularVelocity() / p.Medium.SoundSpeed()
	// Amplitude of the reflected ray scales by the direct/reflected
	// distance ratio (spreading).
	a := d / reflected
	re := 1 - a*math.Cos(k*delta)
	im := a * math.Sin(k*delta)
	return math.Hypot(re, im)
}

// Validate reports whether the path is physical.
func (p Path) Validate() error {
	if err := valid.Positive("acoustics: path distance", p.Distance); err != nil {
		return err
	}
	return p.Medium.Validate()
}

// TransmissionLoss returns the positive loss in dB along the path for a
// source referenced at refDist.
func (p Path) TransmissionLoss(f units.Frequency, refDist units.Distance) units.Decibel {
	if p.Distance <= 0 || refDist <= 0 {
		return 0
	}
	spreading := 20 * math.Log10(float64(p.Distance)/float64(refDist))
	if spreading < 0 {
		// Inside the reference distance the near field saturates; clamp
		// rather than extrapolating gain.
		spreading = 0
	}
	absorption := float64(p.Medium.AbsorptionLoss(f, p.Distance))
	surface := 0.0
	if sf := p.surfaceFactor(f); sf > 0 {
		surface = -20 * math.Log10(sf)
	} else {
		surface = 120 // a perfect null: bounded rather than infinite
	}
	return units.Decibel(spreading + absorption + surface)
}

// Chain is the assembled attack source: amplifier, speaker, and path.
// Its product is the incident SPL (and pressure) at the victim surface for
// a given drive tone.
type Chain struct {
	Amp     Amplifier
	Speaker Speaker
	Path    Path
}

// PaperChain assembles the paper's testbed chain (BG-2120 + AQ339 in a
// freshwater tank) at the given speaker-to-container distance.
func PaperChain(d units.Distance) Chain {
	return Chain{
		Amp:     BG2120(),
		Speaker: AQ339(),
		Path:    Path{Medium: water.FreshwaterTank(), Distance: d},
	}
}

// Validate reports whether every element of the chain is consistent.
func (c Chain) Validate() error {
	if err := c.Speaker.Validate(); err != nil {
		return err
	}
	return c.Path.Validate()
}

// IncidentSPL returns the SPL arriving at the target surface for the tone.
func (c Chain) IncidentSPL(t sig.Tone) units.SPL {
	driven := c.Amp.Drive(t)
	src := c.Speaker.SourceLevel(driven)
	loss := c.Path.TransmissionLoss(driven.Freq, c.Speaker.RefDist)
	return src.Add(-loss)
}

// IncidentPressure returns the RMS pressure arriving at the target surface.
func (c Chain) IncidentPressure(t sig.Tone) units.Pressure {
	return c.IncidentSPL(t).Pressure()
}

// WithDistance returns a copy of the chain at a different distance,
// preserving medium, speaker, and amplifier. Attack procedures use this to
// sweep range.
func (c Chain) WithDistance(d units.Distance) Chain {
	c.Path.Distance = d
	return c
}

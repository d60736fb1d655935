// Package units provides the physical unit types and decibel arithmetic
// shared by every layer of the Deep Note simulation: frequencies, distances,
// pressures, and sound pressure levels (SPL) referenced to the underwater
// (1 µPa) and in-air (20 µPa) conventions.
//
// All types are defined as float64 so they stay cheap and composable, but the
// distinct named types keep the APIs honest about what a number means: a
// Frequency is never silently used as a Distance, and an SPL is always tied
// to an explicit reference pressure.
package units

import (
	"fmt"
	"math"
)

// Frequency is a signal frequency in hertz.
type Frequency float64

// Common frequency constructors.
const (
	Hz  Frequency = 1
	KHz Frequency = 1000
)

// Hertz returns the frequency as a plain float64 in Hz.
func (f Frequency) Hertz() float64 { return float64(f) }

// Kilohertz returns the frequency in kHz.
func (f Frequency) Kilohertz() float64 { return float64(f) / 1000 }

// Period returns the period of one cycle in seconds. A non-positive
// frequency has no period and returns +Inf.
func (f Frequency) Period() float64 {
	if f <= 0 {
		return math.Inf(1)
	}
	return 1 / float64(f)
}

// AngularVelocity returns 2πf in radians per second.
func (f Frequency) AngularVelocity() float64 { return 2 * math.Pi * float64(f) }

// String renders the frequency using Hz or kHz as appropriate.
func (f Frequency) String() string {
	if math.Abs(float64(f)) >= 1000 {
		return fmt.Sprintf("%.4gkHz", float64(f)/1000)
	}
	return fmt.Sprintf("%.4gHz", float64(f))
}

// Distance is a length in meters.
type Distance float64

// Common distance constructors.
const (
	Meter      Distance = 1
	Centimeter Distance = 0.01
	Millimeter Distance = 0.001
	Kilometer  Distance = 1000
)

// Meters returns the distance as a plain float64 in meters.
func (d Distance) Meters() float64 { return float64(d) }

// Centimeters returns the distance in centimeters.
func (d Distance) Centimeters() float64 { return float64(d) * 100 }

// Kilometers returns the distance in kilometers.
func (d Distance) Kilometers() float64 { return float64(d) / 1000 }

// String renders the distance with a convenient unit.
func (d Distance) String() string {
	abs := math.Abs(float64(d))
	switch {
	case abs >= 1000:
		return fmt.Sprintf("%.4gkm", float64(d)/1000)
	case abs >= 1:
		return fmt.Sprintf("%.4gm", float64(d))
	case abs >= 0.01:
		return fmt.Sprintf("%.4gcm", float64(d)*100)
	default:
		return fmt.Sprintf("%.4gmm", float64(d)*1000)
	}
}

// Pressure is an acoustic pressure in pascals.
type Pressure float64

// Pressure unit constructors.
const (
	Pascal      Pressure = 1
	MicroPascal Pressure = 1e-6
)

// Pascals returns the pressure as a plain float64 in Pa.
func (p Pressure) Pascals() float64 { return float64(p) }

// Decibel is a ratio expressed in dB. It is used for gains and losses along
// the attack signal chain (amplifier gain, transmission loss, spreading
// loss), not for absolute levels — absolute levels are SPL values.
type Decibel float64

// Linear converts an amplitude-ratio decibel value to a linear factor
// (20·log10 convention).
func (g Decibel) Linear() float64 { return math.Pow(10, float64(g)/20) }

// String renders the value with a dB suffix.
func (g Decibel) String() string { return fmt.Sprintf("%.4gdB", float64(g)) }

// AmplitudeRatioDB converts a linear amplitude ratio to decibels
// (20·log10 convention). A non-positive ratio maps to -Inf dB.
func AmplitudeRatioDB(ratio float64) Decibel {
	if ratio <= 0 {
		return Decibel(math.Inf(-1))
	}
	return Decibel(20 * math.Log10(ratio))
}

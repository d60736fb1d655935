package units

import (
	"fmt"
	"math"
)

// Reference pressures for sound pressure level measurements. Underwater
// acoustics uses 1 µPa; airborne acoustics uses 20 µPa. The 26 dB offset
// between an in-air SPL figure and the equivalent underwater figure quoted
// in the paper (§2.2) falls directly out of these references:
//
//	SPL_water = SPL_air + 20·log10(20 µPa / 1 µPa) ≈ SPL_air + 26 dB
const (
	RefPressureWater Pressure = 1e-6  // 1 µPa
	RefPressureAir   Pressure = 20e-6 // 20 µPa
)

// SPL is a sound pressure level in dB relative to an explicit reference
// pressure. The zero value is meaningless; construct SPLs with WaterSPL,
// SPLFromPressure, or a literal with an explicit Ref.
type SPL struct {
	// DB is the level in decibels relative to Ref.
	DB float64
	// Ref is the reference pressure the level is expressed against.
	Ref Pressure
}

// WaterSPL builds an underwater SPL (re 1 µPa).
func WaterSPL(db float64) SPL { return SPL{DB: db, Ref: RefPressureWater} }

// SPLFromPressure converts an RMS pressure to a level against ref.
func SPLFromPressure(p Pressure, ref Pressure) SPL {
	if p <= 0 {
		return SPL{DB: math.Inf(-1), Ref: ref}
	}
	return SPL{DB: 20 * math.Log10(float64(p)/float64(ref)), Ref: ref}
}

// Pressure returns the RMS pressure corresponding to the level.
func (s SPL) Pressure() Pressure {
	return Pressure(float64(s.Ref) * math.Pow(10, s.DB/20))
}

// Rereference converts the level to a different reference pressure without
// changing the underlying physical pressure.
func (s SPL) Rereference(ref Pressure) SPL {
	return SPLFromPressure(s.Pressure(), ref)
}

// Add applies a gain (or, when negative, a loss) in dB and returns the new
// level against the same reference.
func (s SPL) Add(gain Decibel) SPL { return SPL{DB: s.DB + float64(gain), Ref: s.Ref} }

// Sub returns the gain in dB that separates s from o after converting o to
// s's reference. Positive means s is louder.
func (s SPL) Sub(o SPL) Decibel { return Decibel(s.DB - o.Rereference(s.Ref).DB) }

// String renders the level and identifies the reference convention.
func (s SPL) String() string {
	switch s.Ref {
	case RefPressureWater:
		return fmt.Sprintf("%.4gdB re 1µPa", s.DB)
	case RefPressureAir:
		return fmt.Sprintf("%.4gdB re 20µPa", s.DB)
	default:
		return fmt.Sprintf("%.4gdB re %.4gPa", s.DB, float64(s.Ref))
	}
}

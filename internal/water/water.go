// Package water models the underwater acoustic medium the Deep Note attack
// propagates through: sound speed (Medwin's equation), density, and
// frequency-dependent absorption (Ainslie & McColm's simplification of the
// Fisher–Simmons / François–Garrison formulation, the same family of models
// the paper cites for attenuation, e.g. 0.038 dB/km at 500 Hz in the Baltic).
//
// The medium is a small value type: temperature in °C, salinity in PSU
// (practical salinity units, ≈ parts per thousand), and depth in meters.
// Freshwater tank experiments use Salinity ≈ 0; ocean deployments like
// Project Natick use ≈ 35 PSU at tens of meters of depth.
package water

import (
	"fmt"
	"math"

	"deepnote/internal/units"
)

// Medium describes the water column at the attack site.
type Medium struct {
	// TempC is the water temperature in degrees Celsius.
	TempC float64
	// SalinityPSU is the salinity in practical salinity units (≈ ‰).
	SalinityPSU float64
	// DepthM is the depth of the propagation path in meters.
	DepthM float64
	// AcidityPH is the pH of the water; it affects the boric-acid
	// relaxation term of low-frequency absorption. Seawater is ≈ 8.
	//
	// Convention: 0 means "unset" and is substituted with the seawater
	// default of 8 wherever pH enters the model (Absorption). Validate
	// accepts 0 under the same convention; any explicit non-zero value
	// must lie in the fitted domain [6, 9]. A physically pH-0 water
	// column is far outside the empirical model's domain, so the zero
	// value is safe to reserve as the sentinel.
	AcidityPH float64
}

// FreshwaterTank is the paper's laboratory condition: a freshwater tank at
// room temperature with the container just below the surface.
func FreshwaterTank() Medium {
	return Medium{TempC: 21, SalinityPSU: 0, DepthM: 0.5, AcidityPH: 7}
}

// Seawater returns a typical open-ocean condition at the given depth,
// matching the deployments the paper discusses (Microsoft's Natick at ~36 m,
// the Hainan data center at ~20 m).
func Seawater(depthM float64) Medium {
	return Medium{TempC: 12, SalinityPSU: 35, DepthM: depthM, AcidityPH: 8}
}

// BalticAt50m approximates the brackish Baltic condition the paper quotes
// for the 0.038 dB/km @ 500 Hz attenuation figure [47].
func BalticAt50m() Medium {
	return Medium{TempC: 6, SalinityPSU: 8, DepthM: 50, AcidityPH: 7.9}
}

// Validate reports whether the medium parameters are within the domains the
// underlying empirical equations were fitted for. Each test is written as
// "not inside the domain", so a NaN field fails it too.
func (m Medium) Validate() error {
	if !(m.TempC >= -2 && m.TempC <= 40) {
		return fmt.Errorf("water: temperature %.1f°C outside model domain [-2, 40]", m.TempC)
	}
	if !(m.SalinityPSU >= 0 && m.SalinityPSU <= 45) {
		return fmt.Errorf("water: salinity %.1f PSU outside model domain [0, 45]", m.SalinityPSU)
	}
	if !(m.DepthM >= 0 && m.DepthM <= 11000) {
		return fmt.Errorf("water: depth %.1f m outside model domain [0, 11000]", m.DepthM)
	}
	if m.AcidityPH != 0 && !(m.AcidityPH >= 6 && m.AcidityPH <= 9) {
		return fmt.Errorf("water: pH %.2f outside model domain [6, 9] (0 means unset and defaults to 8)", m.AcidityPH)
	}
	return nil
}

// SoundSpeed returns the speed of sound in m/s using Medwin's (1975) simple
// equation for realistic parameters, the formulation the paper cites [30]:
//
//	c = 1449.2 + 4.6T − 0.055T² + 0.00029T³ + (1.34 − 0.010T)(S − 35) + 0.016z
func (m Medium) SoundSpeed() float64 {
	t := m.TempC
	s := m.SalinityPSU
	z := m.DepthM
	return 1449.2 + 4.6*t - 0.055*t*t + 0.00029*t*t*t + (1.34-0.010*t)*(s-35) + 0.016*z
}

// Absorption returns the absorption coefficient α in dB/km at frequency f,
// using the Ainslie & McColm (1998) simplified formula: a boric-acid
// relaxation term, a magnesium-sulfate relaxation term, and a viscous term.
// For freshwater (S≈0) the relaxation terms vanish and only the viscous
// term remains, which is why tank-scale experiments see effectively zero
// absorption — matching the paper's observation that attenuation only
// matters at long range.
func (m Medium) Absorption(f units.Frequency) float64 {
	fkHz := f.Kilohertz()
	if fkHz <= 0 {
		return 0
	}
	t := m.TempC
	s := m.SalinityPSU
	zkm := m.DepthM / 1000
	ph := m.AcidityPH
	if ph == 0 {
		ph = 8 // the documented unset convention: default to seawater pH
	}

	// Relaxation frequencies (kHz).
	f1 := 0.78 * math.Sqrt(math.Max(s, 0)/35) * math.Exp(t/26)
	f2 := 42 * math.Exp(t/17)

	f2kHz := fkHz * fkHz

	var boric, magsulf float64
	if s > 0 && f1 > 0 {
		boric = 0.106 * (f1 * f2kHz / (f2kHz + f1*f1)) * math.Exp((ph-8)/0.56)
	}
	if s > 0 {
		magsulf = 0.52 * (1 + t/43) * (s / 35) * (f2 * f2kHz / (f2kHz + f2*f2)) * math.Exp(-zkm/6)
	}
	viscous := 0.00049 * f2kHz * math.Exp(-(t/27 + zkm/17))
	return boric + magsulf + viscous
}

// AbsorptionLoss returns the absorption loss in dB over distance d at
// frequency f. Tank-scale distances yield losses far below a millidecibel.
func (m Medium) AbsorptionLoss(f units.Frequency, d units.Distance) units.Decibel {
	return units.Decibel(m.Absorption(f) * d.Kilometers())
}

// String summarizes the medium.
func (m Medium) String() string {
	return fmt.Sprintf("water(T=%.1f°C S=%.1fPSU z=%.1fm c=%.0fm/s)",
		m.TempC, m.SalinityPSU, m.DepthM, m.SoundSpeed())
}

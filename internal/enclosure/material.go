// Package enclosure models the structures between the water and the victim
// drive: the submerged container (hard plastic or aluminum, per the paper's
// Scenarios 1–3), and the Supermicro-style 5-in-3 storage tower that holds
// the drive in Scenarios 2 and 3.
//
// The model is deliberately simple but captures the two effects the paper's
// §4.1 highlights as decisive: (1) container material changes the vulnerable
// band (plastic vs. aluminum), and (2) structural resonances amplify
// vibration at specific frequencies. Transmission through a wall follows a
// stiffness-controlled region below the first panel mode, resonant
// amplification near modal frequencies, and mass-law attenuation
// (−6 dB/octave growing with surface density) above.
package enclosure

import (
	"fmt"
)

// Material describes a container wall material.
type Material struct {
	// Name identifies the material.
	Name string
	// DensityKgM3 is the bulk density in kg/m³.
	DensityKgM3 float64
	// ThicknessM is the wall thickness in meters.
	ThicknessM float64
	// YoungModulusGPa is the stiffness in GPa; stiffer walls push panel
	// modes up in frequency.
	YoungModulusGPa float64
	// LossFactor is the structural damping loss factor η; higher damping
	// flattens resonant peaks.
	LossFactor float64
}

// HDPE returns a hard-plastic (high-density polyethylene) container wall,
// matching the paper's plastic enclosure.
func HDPE() Material {
	return Material{
		Name:            "HDPE plastic",
		DensityKgM3:     960,
		ThicknessM:      0.004,
		YoungModulusGPa: 1.0,
		LossFactor:      0.06,
	}
}

// Aluminum6061 returns an aluminum container wall, matching the paper's
// metal enclosure.
func Aluminum6061() Material {
	return Material{
		Name:            "Aluminum 6061",
		DensityKgM3:     2700,
		ThicknessM:      0.003,
		YoungModulusGPa: 69,
		LossFactor:      0.01,
	}
}

// PressureVesselSteel returns the thick steel wall of a production
// underwater data center vessel (Project Natick's cylinder), the §5
// "Data Center Structure" case: far heavier than either test container.
func PressureVesselSteel() Material {
	return Material{
		Name:            "pressure-vessel steel",
		DensityKgM3:     7850,
		ThicknessM:      0.025,
		YoungModulusGPa: 200,
		LossFactor:      0.008,
	}
}

// Validate reports whether the material parameters are physical.
func (m Material) Validate() error {
	if m.DensityKgM3 <= 0 {
		return fmt.Errorf("enclosure: material %q density must be positive", m.Name)
	}
	if m.ThicknessM <= 0 {
		return fmt.Errorf("enclosure: material %q thickness must be positive", m.Name)
	}
	if m.YoungModulusGPa <= 0 {
		return fmt.Errorf("enclosure: material %q stiffness must be positive", m.Name)
	}
	if m.LossFactor <= 0 || m.LossFactor > 1 {
		return fmt.Errorf("enclosure: material %q loss factor must be in (0, 1]", m.Name)
	}
	return nil
}

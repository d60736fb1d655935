package enclosure

import (
	"fmt"
	"math"

	"deepnote/internal/units"
	"deepnote/internal/vibration"
)

// Container is a submerged enclosure whose walls transmit external acoustic
// pressure to the interior structure (and the nitrogen-filled air space) as
// mechanical vibration.
type Container struct {
	// Name identifies the container build.
	Name string
	// Wall is the wall material.
	Wall Material
	// PanelFundamental is the first flexural mode of the loaded wall
	// panel. Below it the wall is stiffness-controlled and transmits
	// poorly; near it and its overtones transmission is resonant.
	PanelFundamental units.Frequency
	// Modes are the structural resonances that amplify transmission into
	// the interior (panel overtones, frame modes).
	Modes vibration.Stack
	// MassLawCorner is the frequency above which mass-law attenuation
	// takes hold; heavier walls have lower corners and steeper effective
	// loss in-band.
	MassLawCorner units.Frequency
	// CouplingGain is a dimensionless scale for how efficiently incident
	// pressure becomes interior structural excitation.
	CouplingGain float64
}

// PlasticContainer models the paper's hard plastic enclosure. Its light,
// compliant walls pass a broad band: resonances near 450 Hz and 1.1 kHz and
// a high mass-law corner keep transmission strong out to ≈1.7 kHz.
func PlasticContainer() Container {
	return Container{
		Name:             "hard plastic container",
		Wall:             HDPE(),
		PanelFundamental: 320 * units.Hz,
		Modes: vibration.Stack{
			{F0: 450 * units.Hz, Q: 2.8, Gain: 1.0},
			{F0: 1100 * units.Hz, Q: 2.2, Gain: 0.9},
		},
		MassLawCorner: 1250 * units.Hz,
		CouplingGain:  1.0,
	}
}

// AluminumContainer models the paper's aluminum enclosure. The heavier,
// stiffer wall attenuates more overall and rolls off sooner (band collapses
// by ≈1.3 kHz for writes), but its low damping produces sharper resonant
// transmission inside the band.
func AluminumContainer() Container {
	return Container{
		Name:             "aluminum container",
		Wall:             Aluminum6061(),
		PanelFundamental: 340 * units.Hz,
		Modes: vibration.Stack{
			{F0: 430 * units.Hz, Q: 4.5, Gain: 0.75},
			{F0: 820 * units.Hz, Q: 3.5, Gain: 0.55},
		},
		MassLawCorner: 500 * units.Hz,
		CouplingGain:  0.85,
	}
}

// NatickVessel models a production-grade steel pressure vessel (the §5
// "Data Center Structure" discussion): the heavy wall buys roughly an
// order of magnitude more attenuation than the test containers and pushes
// the panel fundamental down (large cylinder shell modes) while the
// mass-law corner drops far below the vulnerable band.
func NatickVessel() Container {
	return Container{
		Name:             "steel pressure vessel (Natick-class)",
		Wall:             PressureVesselSteel(),
		PanelFundamental: 180 * units.Hz,
		Modes: vibration.Stack{
			{F0: 240 * units.Hz, Q: 6, Gain: 0.35},
			{F0: 510 * units.Hz, Q: 4, Gain: 0.2},
		},
		MassLawCorner: 200 * units.Hz,
		CouplingGain:  0.3,
	}
}

// Validate reports whether the container is consistent.
func (c Container) Validate() error {
	if err := c.Wall.Validate(); err != nil {
		return err
	}
	if c.PanelFundamental <= 0 {
		return fmt.Errorf("enclosure: container %q panel fundamental must be positive", c.Name)
	}
	if c.MassLawCorner <= 0 {
		return fmt.Errorf("enclosure: container %q mass-law corner must be positive", c.Name)
	}
	if c.CouplingGain <= 0 {
		return fmt.Errorf("enclosure: container %q coupling gain must be positive", c.Name)
	}
	return c.Modes.Validate()
}

// TransmissionGain returns the dimensionless linear gain from incident
// external pressure to interior structural excitation at frequency f.
func (c Container) TransmissionGain(f units.Frequency) float64 {
	if f <= 0 {
		return 0
	}
	// Stiffness-controlled region: rises 12 dB/octave up to the panel
	// fundamental, unity above.
	stiff := 1.0
	if f < c.PanelFundamental {
		r := float64(f) / float64(c.PanelFundamental)
		stiff = r * r
	}
	// Mass law: -6 dB/octave above the corner.
	mass := 1.0
	if f > c.MassLawCorner {
		mass = float64(c.MassLawCorner) / float64(f)
	}
	// Resonant transmission: base path plus modal peaks (power sum so the
	// floor stays at ~1 between modes).
	modal := math.Sqrt(1 + sq(c.Modes.Response(f)))
	return c.CouplingGain * stiff * mass * modal
}

func sq(x float64) float64 { return x * x }

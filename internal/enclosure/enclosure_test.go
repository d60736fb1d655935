package enclosure

import (
	"math"
	"testing"
	"testing/quick"

	"deepnote/internal/units"
)

func TestMaterialPresets(t *testing.T) {
	for _, m := range []Material{HDPE(), Aluminum6061()} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	if surfaceDensity(Aluminum6061()) <= surfaceDensity(HDPE()) {
		t.Fatal("aluminum wall should be heavier per unit area than HDPE")
	}
}

func TestMaterialValidate(t *testing.T) {
	bad := []Material{
		{Name: "x", DensityKgM3: 0, ThicknessM: 1, YoungModulusGPa: 1, LossFactor: 0.1},
		{Name: "x", DensityKgM3: 1, ThicknessM: 0, YoungModulusGPa: 1, LossFactor: 0.1},
		{Name: "x", DensityKgM3: 1, ThicknessM: 1, YoungModulusGPa: 0, LossFactor: 0.1},
		{Name: "x", DensityKgM3: 1, ThicknessM: 1, YoungModulusGPa: 1, LossFactor: 0},
		{Name: "x", DensityKgM3: 1, ThicknessM: 1, YoungModulusGPa: 1, LossFactor: 2},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestContainerPresetsValid(t *testing.T) {
	for _, c := range []Container{PlasticContainer(), AluminumContainer()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
	}
}

func TestContainerValidateRejectsBadFields(t *testing.T) {
	c := PlasticContainer()
	c.PanelFundamental = 0
	if err := c.Validate(); err == nil {
		t.Error("expected error for zero panel fundamental")
	}
	c = PlasticContainer()
	c.MassLawCorner = 0
	if err := c.Validate(); err == nil {
		t.Error("expected error for zero mass-law corner")
	}
	c = PlasticContainer()
	c.CouplingGain = 0
	if err := c.Validate(); err == nil {
		t.Error("expected error for zero coupling gain")
	}
}

func TestTransmissionGainZeroAtZeroFrequency(t *testing.T) {
	if got := PlasticContainer().TransmissionGain(0); got != 0 {
		t.Fatalf("gain at 0 Hz = %v, want 0", got)
	}
}

func TestStiffnessRegionAttenuatesLowFrequency(t *testing.T) {
	c := PlasticContainer()
	// 12 dB/octave below the panel fundamental: an octave below should be
	// well under half the gain near the fundamental.
	low := c.TransmissionGain(c.PanelFundamental / 2)
	at := c.TransmissionGain(c.PanelFundamental)
	if low >= at/2 {
		t.Fatalf("stiffness region not attenuating: gain(%v)=%v vs gain(%v)=%v",
			c.PanelFundamental/2, low, c.PanelFundamental, at)
	}
}

func TestMassLawAttenuatesHighFrequency(t *testing.T) {
	for _, c := range []Container{PlasticContainer(), AluminumContainer()} {
		g2k := c.TransmissionGain(2 * c.MassLawCorner)
		g8k := c.TransmissionGain(8 * c.MassLawCorner)
		if g8k >= g2k {
			t.Errorf("%s: mass law not attenuating: gain falls %v → %v", c.Name, g2k, g8k)
		}
	}
}

func TestAluminumRollsOffSoonerThanPlastic(t *testing.T) {
	// The paper's §4.1: the metal container's vulnerable band tops out at
	// 1.3 kHz vs 1.7 kHz for plastic. At 1.6 kHz the plastic container must
	// transmit relatively more than the aluminum one, normalized to their
	// mid-band transmission.
	p, a := PlasticContainer(), AluminumContainer()
	ratioP := p.TransmissionGain(1600) / p.TransmissionGain(650)
	ratioA := a.TransmissionGain(1600) / a.TransmissionGain(650)
	if ratioP <= ratioA {
		t.Fatalf("plastic 1.6k/650 ratio %v should exceed aluminum %v", ratioP, ratioA)
	}
}

func TestTransmissionPeaksInsideVulnerableBand(t *testing.T) {
	for _, c := range []Container{PlasticContainer(), AluminumContainer()} {
		best, bestG := units.Frequency(0), 0.0
		for f := units.Frequency(100); f <= 16900; f += 10 {
			if g := c.TransmissionGain(f); g > bestG {
				bestG, best = g, f
			}
		}
		if best < 300 || best > 1300 {
			t.Errorf("%s: peak transmission at %v, want inside [300, 1300] Hz", c.Name, best)
		}
	}
}

func TestTowerPresetValid(t *testing.T) {
	tw := SupermicroCSEM35TQB()
	if err := tw.Validate(); err != nil {
		t.Fatal(err)
	}
	if tw.Slots != 5 {
		t.Fatalf("slots = %d, want 5", tw.Slots)
	}
}

func TestTowerValidateRejectsBad(t *testing.T) {
	tw := SupermicroCSEM35TQB()
	tw.Slots = 0
	if err := tw.Validate(); err == nil {
		t.Error("expected error for zero slots")
	}
	tw = SupermicroCSEM35TQB()
	tw.BaseGain = 0
	if err := tw.Validate(); err == nil {
		t.Error("expected error for zero base gain")
	}
	tw = SupermicroCSEM35TQB()
	tw.SlotGradient = -1
	if err := tw.Validate(); err == nil {
		t.Error("expected error for negative gradient")
	}
}

func TestSlotGainMonotoneAndClamped(t *testing.T) {
	tw := SupermicroCSEM35TQB()
	prev := 0.0
	for s := 0; s < tw.Slots; s++ {
		g := tw.SlotGain(s)
		if g <= prev {
			t.Fatalf("slot gain not increasing at slot %d", s)
		}
		prev = g
	}
	if tw.SlotGain(-3) != tw.SlotGain(0) {
		t.Fatal("negative slot should clamp to 0")
	}
	if tw.SlotGain(99) != tw.SlotGain(tw.Slots-1) {
		t.Fatal("overflow slot should clamp to top")
	}
}

func TestTowerCouplingNeverBelowBase(t *testing.T) {
	tw := SupermicroCSEM35TQB()
	prop := func(fRaw uint16, slotRaw uint8) bool {
		f := units.Frequency(fRaw%17000) + 1
		slot := int(slotRaw % 5)
		return tw.CouplingGain(f, slot) >= tw.SlotGain(slot)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMounts(t *testing.T) {
	fm := FloorMount()
	if err := fm.Validate(); err != nil {
		t.Fatal(err)
	}
	if fm.Gain(650) != 1.1 {
		t.Fatalf("floor gain = %v, want 1.1", fm.Gain(650))
	}
	zero := Mount{}
	if zero.Gain(650) != 1 {
		t.Fatalf("zero-value mount gain = %v, want 1", zero.Gain(650))
	}
	tm := TowerMount(SupermicroCSEM35TQB(), 1)
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
	if tm.Gain(650) <= 0 {
		t.Fatal("tower mount gain must be positive")
	}
	badSlot := TowerMount(SupermicroCSEM35TQB(), 7)
	if err := badSlot.Validate(); err == nil {
		t.Fatal("expected error for out-of-range slot")
	}
	badFloor := Mount{FloorGain: -1}
	if err := badFloor.Validate(); err == nil {
		t.Fatal("expected error for negative floor gain")
	}
}

func TestAssemblyGainComposes(t *testing.T) {
	a := Assembly{Container: PlasticContainer(), Mount: TowerMount(SupermicroCSEM35TQB(), 1)}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	g := a.StructuralGain(650)
	want := a.Container.TransmissionGain(650) * a.Mount.Gain(650)
	if math.Abs(g-want) > 1e-12 {
		t.Fatalf("assembly gain = %v, want %v", g, want)
	}
}

func TestAssemblyValidatePropagates(t *testing.T) {
	a := Assembly{Container: PlasticContainer(), Mount: Mount{FloorGain: -1}}
	if err := a.Validate(); err == nil {
		t.Fatal("expected mount validation error")
	}
	a = Assembly{Container: Container{}, Mount: FloorMount()}
	if err := a.Validate(); err == nil {
		t.Fatal("expected container validation error")
	}
}

// surfaceDensity returns a wall's mass per unit area (kg/m²).
func surfaceDensity(m Material) float64 { return m.DensityKgM3 * m.ThicknessM }

package water

import (
	"math"
	"testing"
	"testing/quick"

	"deepnote/internal/units"
)

func TestMedwinSoundSpeedKnownPoints(t *testing.T) {
	cases := []struct {
		name string
		m    Medium
		want float64
		tol  float64
	}{
		// Medwin's equation at S=35, z=0, T=10 gives ≈ 1490 m/s.
		{"ocean 10C", Medium{TempC: 10, SalinityPSU: 35, DepthM: 0}, 1490, 3},
		// Pure water at 21°C: canonical ≈ 1485 m/s.
		{"fresh 21C", FreshwaterTank(), 1485, 5},
	}
	for _, c := range cases {
		got := c.m.SoundSpeed()
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%s: SoundSpeed = %.1f, want %.1f ± %.1f", c.name, got, c.want, c.tol)
		}
	}
}

func TestSoundSpeedMonotonicity(t *testing.T) {
	// Paper §5: temperature, salinity, and depth each increase sound speed
	// (in the operating range below ~35°C for temperature).
	base := Seawater(20)
	warmer := base
	warmer.TempC += 5
	if warmer.SoundSpeed() <= base.SoundSpeed() {
		t.Error("warmer water should carry sound faster")
	}
	saltier := base
	saltier.SalinityPSU += 5
	if saltier.SoundSpeed() <= base.SoundSpeed() {
		t.Error("saltier water should carry sound faster")
	}
	deeper := base
	deeper.DepthM += 100
	if deeper.SoundSpeed() <= base.SoundSpeed() {
		t.Error("deeper water should carry sound faster")
	}
}

func TestSoundSpeedFasterThanAir(t *testing.T) {
	// §2.2: sound travels roughly 4x faster in water than in air (343 m/s).
	for _, m := range []Medium{FreshwaterTank(), Seawater(36), BalticAt50m()} {
		c := m.SoundSpeed()
		if c < 3.9*343 || c > 4.7*343 {
			t.Errorf("%v: c=%.0f m/s, want ≈4x air speed", m, c)
		}
	}
}

func TestAbsorptionBalticFigure(t *testing.T) {
	// Paper §4.2 quotes 0.038 dB/km for a 500 Hz signal at 50 m depth in the
	// Baltic. Ainslie–McColm with brackish parameters should land within a
	// small factor of that figure.
	m := BalticAt50m()
	a := m.Absorption(500 * units.Hz)
	if a < 0.005 || a > 0.15 {
		t.Fatalf("Baltic absorption at 500 Hz = %.4f dB/km, want order 0.038", a)
	}
}

func TestAbsorptionFreshwaterViscousOnly(t *testing.T) {
	m := FreshwaterTank()
	// At 650 Hz the viscous term is ≈ 0.00049*0.4225*exp(-21/27) ≈ 1e-4 dB/km.
	a := m.Absorption(650 * units.Hz)
	if a <= 0 || a > 0.001 {
		t.Fatalf("freshwater absorption at 650 Hz = %v dB/km, want tiny positive", a)
	}
	// Over 25 cm the loss must be utterly negligible (<< 1e-3 dB).
	loss := float64(m.AbsorptionLoss(650*units.Hz, 25*units.Centimeter))
	if loss > 1e-6 {
		t.Fatalf("tank-scale absorption loss = %v dB, want ≈0", loss)
	}
}

func TestAbsorptionIncreasesWithFrequency(t *testing.T) {
	m := Seawater(36)
	prev := 0.0
	for _, f := range []units.Frequency{100, 500, 1000, 5000, 16900} {
		a := m.Absorption(f)
		if a <= prev {
			t.Fatalf("absorption not increasing at %v: %v <= %v", f, a, prev)
		}
		prev = a
	}
}

func TestAbsorptionNonNegativeProperty(t *testing.T) {
	prop := func(fHz, temp, sal float64) bool {
		f := units.Frequency(math.Abs(math.Mod(fHz, 20000)))
		m := Medium{
			TempC:       math.Abs(math.Mod(temp, 35)),
			SalinityPSU: math.Abs(math.Mod(sal, 40)),
			DepthM:      10,
			AcidityPH:   8,
		}
		return m.Absorption(f) >= 0
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAbsorptionZeroAtZeroFrequency(t *testing.T) {
	if got := Seawater(10).Absorption(0); got != 0 {
		t.Fatalf("Absorption(0) = %v, want 0", got)
	}
}

func TestValidate(t *testing.T) {
	good := []Medium{FreshwaterTank(), Seawater(36), BalticAt50m()}
	for _, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("%v: unexpected validation error %v", m, err)
		}
	}
	bad := []Medium{
		{TempC: 80},
		{TempC: 10, SalinityPSU: 99},
		{TempC: 10, DepthM: 20000},
		{TempC: 10, AcidityPH: 3},
		// A NaN fails every ordered comparison, so each range test must
		// reject it rather than let it through.
		{TempC: math.NaN()},
		{TempC: 10, SalinityPSU: math.NaN()},
		{TempC: 10, DepthM: math.NaN()},
		{TempC: 10, AcidityPH: math.NaN()},
		{TempC: math.Inf(1)},
		{TempC: 10, DepthM: math.Inf(-1)},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%+v: expected validation error", m)
		}
	}
}

func TestStringContainsSpeed(t *testing.T) {
	s := FreshwaterTank().String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}

// TestAbsorptionPHUnsetDefaultsToSeawater pins the documented zero-value
// convention: AcidityPH == 0 means "unset" and must absorb exactly like
// an explicit seawater pH of 8 — not like a (physically absurd) pH-0
// column, which would collapse the boric-acid term by e^(-8/0.56).
func TestAbsorptionPHUnsetDefaultsToSeawater(t *testing.T) {
	unset := Seawater(36)
	unset.AcidityPH = 0
	explicit := Seawater(36)
	explicit.AcidityPH = 8
	for _, f := range []units.Frequency{500 * units.Hz, 5 * units.KHz, 50 * units.KHz} {
		a0, a8 := unset.Absorption(f), explicit.Absorption(f)
		if a0 != a8 {
			t.Fatalf("at %v: pH-unset absorption %.9f != pH-8 absorption %.9f", f, a0, a8)
		}
		// And a genuinely different pH must actually change the answer,
		// so the test cannot pass vacuously.
		acidic := explicit
		acidic.AcidityPH = 7
		if a7 := acidic.Absorption(f); a7 >= a8 {
			t.Fatalf("at %v: pH 7 absorption %.9f not below pH 8 absorption %.9f", f, a7, a8)
		}
	}
}

// TestAbsorptionFreshwaterPHIndependent: with S=0 the boric-acid term is
// gone entirely, so pH (set or unset) cannot matter.
func TestAbsorptionFreshwaterPHIndependent(t *testing.T) {
	base := FreshwaterTank()
	for _, ph := range []float64{0, 6, 7, 9} {
		m := base
		m.AcidityPH = ph
		if a, b := m.Absorption(5*units.KHz), base.Absorption(5*units.KHz); a != b {
			t.Fatalf("freshwater absorption depends on pH: %.9f (pH %.0f) vs %.9f", a, ph, b)
		}
	}
}

// TestValidatePHZeroSentinel: Validate accepts the pH-unset zero value
// but still rejects explicit out-of-domain values on both sides.
func TestValidatePHZeroSentinel(t *testing.T) {
	m := Seawater(36)
	m.AcidityPH = 0
	if err := m.Validate(); err != nil {
		t.Fatalf("pH 0 (unset sentinel) rejected: %v", err)
	}
	for _, ph := range []float64{5.9, 9.1, -1} {
		m.AcidityPH = ph
		if err := m.Validate(); err == nil {
			t.Fatalf("pH %.1f accepted, want out-of-domain error", ph)
		}
	}
}

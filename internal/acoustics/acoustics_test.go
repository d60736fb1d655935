package acoustics

import (
	"math"
	"testing"
	"testing/quick"

	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/water"
)

func TestAQ339FullScaleAt1cmIs140dB(t *testing.T) {
	// The paper transmits 140 dB SPL signals; our chain is normalized so a
	// full-scale 650 Hz tone measures 140 dB re 1 µPa at 1 cm.
	c := PaperChain(1 * units.Centimeter)
	got := c.IncidentSPL(sig.NewTone(650 * units.Hz))
	if math.Abs(got.DB-140) > 0.01 {
		t.Fatalf("incident SPL at 1cm = %v, want 140 dB", got.DB)
	}
}

func TestSphericalSpreading1to25cm(t *testing.T) {
	// 1 cm → 25 cm is 20·log10(25) ≈ 28 dB of spreading loss; absorption in
	// a freshwater tank is negligible.
	tone := sig.NewTone(650 * units.Hz)
	near := PaperChain(1 * units.Centimeter).IncidentSPL(tone)
	far := PaperChain(25 * units.Centimeter).IncidentSPL(tone)
	drop := near.DB - far.DB
	if math.Abs(drop-27.96) > 0.05 {
		t.Fatalf("1→25cm drop = %v dB, want ≈27.96", drop)
	}
}

func TestIncidentSPLMonotoneInDistance(t *testing.T) {
	tone := sig.NewTone(650 * units.Hz)
	prev := math.Inf(1)
	for _, cm := range []float64{1, 5, 10, 15, 20, 25, 100} {
		got := PaperChain(units.Distance(cm) * units.Centimeter).IncidentSPL(tone).DB
		if got >= prev {
			t.Fatalf("SPL not decreasing at %vcm: %v >= %v", cm, got, prev)
		}
		prev = got
	}
}

func TestIncidentSPLDistanceProperty(t *testing.T) {
	tone := sig.NewTone(650 * units.Hz)
	prop := func(aRaw, bRaw uint8) bool {
		a := units.Distance(float64(aRaw)+1) * units.Centimeter
		b := units.Distance(float64(bRaw)+1) * units.Centimeter
		if a > b {
			a, b = b, a
		}
		sa := PaperChain(a).IncidentSPL(tone).DB
		sb := PaperChain(b).IncidentSPL(tone).DB
		return sa >= sb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSpeakerResponseFlatInBand(t *testing.T) {
	s := AQ339()
	for _, f := range []units.Frequency{100, 300, 650, 1300, 8000, 16900} {
		if got := float64(s.ResponseDB(f)); got != 0 {
			t.Errorf("response at %v = %v dB, want 0 (flat in band)", f, got)
		}
	}
}

func TestSpeakerRollOffOutOfBand(t *testing.T) {
	s := AQ339()
	if got := float64(s.ResponseDB(40 * units.Hz)); got > -11 || got < -13 {
		t.Fatalf("response at 40 Hz = %v dB, want ≈ -12 (one octave below corner)", got)
	}
	if got := float64(s.ResponseDB(34000 * units.Hz)); got > -11 || got < -13.5 {
		t.Fatalf("response at 34 kHz = %v dB, want ≈ -12", got)
	}
	if got := float64(s.ResponseDB(0)); !math.IsInf(got, -1) {
		t.Fatalf("response at 0 Hz = %v, want -Inf", got)
	}
}

func TestSourceLevelSaturatesAtMax(t *testing.T) {
	s := AQ339()
	lvl := s.SourceLevel(sig.Tone{Freq: 650, Amplitude: 5})
	if lvl.DB > s.MaxSPL.DB+1e-9 {
		t.Fatalf("source level %v exceeds max %v", lvl.DB, s.MaxSPL.DB)
	}
}

func TestSourceLevelScalesWithDrive(t *testing.T) {
	s := AQ339()
	full := s.SourceLevel(sig.Tone{Freq: 650, Amplitude: 1})
	half := s.SourceLevel(sig.Tone{Freq: 650, Amplitude: 0.5})
	if math.Abs((full.DB-half.DB)-6.02) > 0.01 {
		t.Fatalf("full-half = %v dB, want ≈6.02", full.DB-half.DB)
	}
	silent := s.SourceLevel(sig.Tone{Freq: 650, Amplitude: 0})
	if !math.IsInf(silent.DB, -1) {
		t.Fatalf("silent source level = %v, want -Inf", silent.DB)
	}
}

func TestAmplifierGainAndClip(t *testing.T) {
	amp := Amplifier{Name: "test", GainDB: 6.0206}
	out := amp.Drive(sig.Tone{Freq: 650, Amplitude: 0.25})
	if math.Abs(out.Amplitude-0.5) > 1e-4 {
		t.Fatalf("6 dB gain on 0.25 = %v, want 0.5", out.Amplitude)
	}
	clipped := amp.Drive(sig.Tone{Freq: 650, Amplitude: 0.9})
	if clipped.Amplitude != 1 {
		t.Fatalf("expected clip to 1, got %v", clipped.Amplitude)
	}
}

func TestPathTransmissionLossInsideReferenceClamped(t *testing.T) {
	p := Path{Medium: water.FreshwaterTank(), Distance: 5 * units.Millimeter}
	tl := float64(p.TransmissionLoss(650*units.Hz, 1*units.Centimeter))
	if tl < 0 {
		t.Fatalf("transmission loss inside reference = %v, want clamped ≥ 0", tl)
	}
}

func TestPathAbsorptionMattersAtLongRange(t *testing.T) {
	// At kilometers in seawater at high frequency, absorption adds real dB
	// beyond spreading.
	m := water.Seawater(36)
	pNear := Path{Medium: m, Distance: 1000 * units.Meter}
	pSpreadOnly := 20 * math.Log10(1000/0.01)
	tl := float64(pNear.TransmissionLoss(16900*units.Hz, 1*units.Centimeter))
	if tl <= pSpreadOnly {
		t.Fatalf("long-range TL %v should exceed pure spreading %v", tl, pSpreadOnly)
	}
}

func TestChainValidate(t *testing.T) {
	c := PaperChain(1 * units.Centimeter)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{0, math.NaN(), math.Inf(1)} {
		bad := c
		bad.Path.Distance = units.Distance(d)
		if err := bad.Validate(); err == nil {
			t.Fatalf("expected error for path distance %v", d)
		}
	}
	badSpk := c
	badSpk.Speaker.RefDist = 0
	if err := badSpk.Validate(); err == nil {
		t.Fatal("expected error for zero speaker reference distance")
	}
	badSpk2 := c
	badSpk2.Speaker.HighCorner = badSpk2.Speaker.LowCorner
	if err := badSpk2.Validate(); err == nil {
		t.Fatal("expected error for inverted corners")
	}
}

func TestWithDistance(t *testing.T) {
	c := PaperChain(1 * units.Centimeter)
	c2 := c.WithDistance(25 * units.Centimeter)
	if c2.Path.Distance != 25*units.Centimeter {
		t.Fatalf("WithDistance = %v", c2.Path.Distance)
	}
	if c.Path.Distance != 1*units.Centimeter {
		t.Fatal("WithDistance mutated the receiver")
	}
}

func TestIncidentPressureAt140dB(t *testing.T) {
	// 140 dB re 1µPa = 10 Pa RMS.
	c := PaperChain(1 * units.Centimeter)
	p := c.IncidentPressure(sig.NewTone(650 * units.Hz))
	if math.Abs(p.Pascals()-10) > 0.01 {
		t.Fatalf("incident pressure = %v Pa, want 10", p.Pascals())
	}
}

func TestSurfaceReflectionDisabledByDefault(t *testing.T) {
	p := Path{Medium: water.FreshwaterTank(), Distance: 10 * units.Centimeter}
	if got := p.surfaceFactor(650); got != 1 {
		t.Fatalf("default surface factor = %v, want 1", got)
	}
}

func TestSurfaceReflectionInterference(t *testing.T) {
	// With a shallow source/target, the Lloyd's mirror effect modulates
	// the delivered level with distance: some ranges constructive (up to
	// +6 dB), some destructive. The factor must stay in [0, 2] and vary.
	m := water.Seawater(20)
	min, max := math.Inf(1), math.Inf(-1)
	for cm := 50.0; cm <= 5000; cm += 25 {
		p := Path{Medium: m, Distance: units.Distance(cm) * units.Centimeter, SurfaceDepth: 2 * units.Meter}
		f := p.surfaceFactor(650)
		if f < 0 || f > 2.000001 {
			t.Fatalf("surface factor %v out of range at %v cm", f, cm)
		}
		min = math.Min(min, f)
		max = math.Max(max, f)
	}
	if max-min < 0.5 {
		t.Fatalf("interference pattern too flat: [%v, %v]", min, max)
	}
}

func TestSurfaceReflectionAffectsTransmissionLoss(t *testing.T) {
	m := water.Seawater(20)
	base := Path{Medium: m, Distance: 100 * units.Meter}
	shallow := base
	shallow.SurfaceDepth = 1 * units.Meter
	tlBase := float64(base.TransmissionLoss(650, 1*units.Meter))
	tlShallow := float64(shallow.TransmissionLoss(650, 1*units.Meter))
	if tlBase == tlShallow {
		t.Fatal("surface reflection had no effect on transmission loss")
	}
}

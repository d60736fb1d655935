package vibration

import (
	"math"
	"testing"
	"testing/quick"

	"deepnote/internal/units"
)

func TestModeResponseAtResonance(t *testing.T) {
	m := Mode{F0: 650, Q: 5, Gain: 2}
	got := m.Response(650)
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("Response(F0) = %v, want Gain*Q = 10", got)
	}
}

func TestModeResponseDC(t *testing.T) {
	m := Mode{F0: 650, Q: 5, Gain: 2}
	if got := m.Response(0); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Response(0) = %v, want static gain 2", got)
	}
}

func TestModeResponseRollsOffAboveResonance(t *testing.T) {
	m := Mode{F0: 650, Q: 5, Gain: 1}
	// Far above resonance the response falls as 1/r².
	r10 := m.Response(6500)
	if r10 > 0.011 || r10 < 0.009 {
		t.Fatalf("Response(10*F0) = %v, want ≈0.01", r10)
	}
}

func TestModeResponsePeaksNearF0(t *testing.T) {
	m := Mode{F0: 650, Q: 8, Gain: 1}
	peak := m.Response(650)
	for _, f := range []units.Frequency{100, 300, 500, 900, 1300, 5000} {
		if m.Response(f) >= peak {
			t.Fatalf("response at %v exceeds resonance peak", f)
		}
	}
}

func TestModeHalfPowerBand(t *testing.T) {
	// The half-power band is F0 ± F0/(2Q) = [950, 1050]; the response at
	// its edges should be ≈ peak/√2 (within the standard narrowband
	// approximation).
	m := Mode{F0: 1000, Q: 10, Gain: 1}
	peak := m.Response(1000)
	edge := m.Response(950)
	if math.Abs(edge/peak-1/math.Sqrt2) > 0.05 {
		t.Fatalf("edge/peak = %v, want ≈0.707", edge/peak)
	}
}

func TestModeValidate(t *testing.T) {
	good := Mode{F0: 100, Q: 1, Gain: 0}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mode{{F0: 0, Q: 1, Gain: 1}, {F0: 100, Q: 0, Gain: 1}, {F0: 100, Q: 1, Gain: -1}} {
		if err := m.Validate(); err == nil {
			t.Errorf("expected error for %+v", m)
		}
	}
}

func TestDegenerateModeResponse(t *testing.T) {
	if got := (Mode{F0: 0, Q: 1, Gain: 1}).Response(100); got != 0 {
		t.Fatalf("degenerate mode response = %v, want 0", got)
	}
}

func TestEmptyStackIsTransparent(t *testing.T) {
	var s Stack
	if got := s.Response(650); got != 1 {
		t.Fatalf("empty stack response = %v, want 1", got)
	}
}

func TestStackPowerSum(t *testing.T) {
	a := Mode{F0: 400, Q: 4, Gain: 1}
	b := Mode{F0: 900, Q: 4, Gain: 1}
	s := Stack{a, b}
	got := s.Response(650)
	want := math.Hypot(a.Response(650), b.Response(650))
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("stack response = %v, want %v", got, want)
	}
}

func TestStackValidate(t *testing.T) {
	s := Stack{{F0: 100, Q: 1, Gain: 1}, {F0: 0, Q: 1, Gain: 1}}
	if err := s.Validate(); err == nil {
		t.Fatal("expected validation error for bad mode in stack")
	}
	if err := (Stack{{F0: 100, Q: 1, Gain: 1}}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStackPeakFrequency(t *testing.T) {
	s := Stack{{F0: 700, Q: 10, Gain: 1}, {F0: 1500, Q: 3, Gain: 1}}
	var f units.Frequency
	r := -1.0
	for g := units.Frequency(100); g <= 2000; g += 10 {
		if resp := s.Response(g); resp > r {
			f, r = g, resp
		}
	}
	if math.Abs(float64(f-700)) > 10 {
		t.Fatalf("peak at %v, want ≈700", f)
	}
	if r < 9 {
		t.Fatalf("peak response = %v, want ≈10", r)
	}
}

func TestStackResponseNonNegativeProperty(t *testing.T) {
	prop := func(f0 uint16, q, gain uint8, f uint16) bool {
		m := Mode{
			F0:   units.Frequency(f0%10000) + 1,
			Q:    float64(q%50) + 0.5,
			Gain: float64(gain % 10),
		}
		s := Stack{m, m}
		return s.Response(units.Frequency(f)) >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestModeStringNonEmpty(t *testing.T) {
	if (Mode{F0: 650, Q: 3, Gain: 1}).String() == "" {
		t.Fatal("empty String()")
	}
}

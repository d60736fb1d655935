package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestFrequencyConversions(t *testing.T) {
	f := 650 * Hz
	if got := f.Hertz(); got != 650 {
		t.Fatalf("Hertz() = %v, want 650", got)
	}
	if got := f.Kilohertz(); got != 0.65 {
		t.Fatalf("Kilohertz() = %v, want 0.65", got)
	}
	if got := (2 * KHz).Hertz(); got != 2000 {
		t.Fatalf("2 kHz = %v Hz, want 2000", got)
	}
}

func TestFrequencyPeriod(t *testing.T) {
	if got := (650 * Hz).Period(); !almostEqual(got, 1.0/650, 1e-12) {
		t.Fatalf("Period(650Hz) = %v, want %v", got, 1.0/650)
	}
	if got := Frequency(0).Period(); !math.IsInf(got, 1) {
		t.Fatalf("Period(0) = %v, want +Inf", got)
	}
	if got := Frequency(-5).Period(); !math.IsInf(got, 1) {
		t.Fatalf("Period(-5) = %v, want +Inf", got)
	}
}

func TestFrequencyAngularVelocity(t *testing.T) {
	if got := (1 * Hz).AngularVelocity(); !almostEqual(got, 2*math.Pi, 1e-12) {
		t.Fatalf("AngularVelocity(1Hz) = %v, want 2π", got)
	}
}

func TestFrequencyString(t *testing.T) {
	cases := []struct {
		f    Frequency
		want string
	}{
		{650 * Hz, "650Hz"},
		{1300 * Hz, "1.3kHz"},
		{16900 * Hz, "16.9kHz"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("String(%v Hz) = %q, want %q", float64(c.f), got, c.want)
		}
	}
}

func TestDistanceConversions(t *testing.T) {
	d := 25 * Centimeter
	if got := d.Meters(); !almostEqual(got, 0.25, 1e-12) {
		t.Fatalf("Meters() = %v, want 0.25", got)
	}
	if got := d.Centimeters(); !almostEqual(got, 25, 1e-12) {
		t.Fatalf("Centimeters() = %v, want 25", got)
	}
	if got := (36 * Meter).Kilometers(); !almostEqual(got, 0.036, 1e-12) {
		t.Fatalf("Kilometers() = %v, want 0.036", got)
	}
}

func TestDistanceString(t *testing.T) {
	cases := []struct {
		d    Distance
		want string
	}{
		{1 * Centimeter, "1cm"},
		{36 * Meter, "36m"},
		{2 * Kilometer, "2km"},
		{5 * Millimeter, "5mm"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("String(%v m) = %q, want %q", float64(c.d), got, c.want)
		}
	}
}

func TestDecibelLinear(t *testing.T) {
	if got := Decibel(20).Linear(); !almostEqual(got, 10, 1e-12) {
		t.Fatalf("20 dB linear = %v, want 10", got)
	}
	if got := Decibel(-6.0205999).Linear(); !almostEqual(got, 0.5, 1e-6) {
		t.Fatalf("-6.02 dB linear = %v, want 0.5", got)
	}
}

func TestAmplitudeRatioDBRoundTrip(t *testing.T) {
	prop := func(r float64) bool {
		ratio := math.Abs(r)
		if ratio < 1e-9 || ratio > 1e9 || math.IsNaN(ratio) {
			return true // out of interesting domain
		}
		back := AmplitudeRatioDB(ratio).Linear()
		return almostEqual(back, ratio, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRatioDBNonPositive(t *testing.T) {
	if got := AmplitudeRatioDB(0); !math.IsInf(float64(got), -1) {
		t.Fatalf("AmplitudeRatioDB(0) = %v, want -Inf", got)
	}
	if got := AmplitudeRatioDB(-1); !math.IsInf(float64(got), -1) {
		t.Fatalf("AmplitudeRatioDB(-1) = %v, want -Inf", got)
	}
}

func TestSPLPressureRoundTrip(t *testing.T) {
	s := WaterSPL(140)
	p := s.Pressure()
	back := SPLFromPressure(p, RefPressureWater)
	if !almostEqual(back.DB, 140, 1e-9) {
		t.Fatalf("round trip = %v dB, want 140", back.DB)
	}
	// 140 dB re 1 µPa is 10^7 µPa = 10 Pa.
	if !almostEqual(p.Pascals(), 10, 1e-9) {
		t.Fatalf("140 dB re 1µPa = %v Pa, want 10", p.Pascals())
	}
}

func TestAirToWaterOffsetIs26DB(t *testing.T) {
	// The paper's §2.2 states SPL_water = SPL_air + 26 dB.
	off := 20 * math.Log10(float64(RefPressureAir)/float64(RefPressureWater))
	if math.Abs(off-26.02) > 0.01 {
		t.Fatalf("air-to-water offset = %v dB, want ≈26 dB", off)
	}
	s := SPL{DB: 114, Ref: RefPressureAir} // 114 dB re 20µPa
	w := s.Rereference(RefPressureWater)
	if math.Abs(w.DB-(114+off)) > 1e-9 {
		t.Fatalf("re 1 µPa = %v dB, want %v", w.DB, 114+off)
	}
}

func TestSPLRereferencePreservesPressure(t *testing.T) {
	prop := func(db float64) bool {
		if math.Abs(db) > 300 || math.IsNaN(db) {
			return true
		}
		s := WaterSPL(db)
		return almostEqual(s.Rereference(RefPressureAir).Pressure().Pascals(), s.Pressure().Pascals(), 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSPLAddSub(t *testing.T) {
	s := WaterSPL(140)
	s2 := s.Add(-28)
	if s2.DB != 112 {
		t.Fatalf("Add(-28) = %v, want 112", s2.DB)
	}
	if got := float64(s.Sub(s2)); !almostEqual(got, 28, 1e-12) {
		t.Fatalf("Sub = %v, want 28", got)
	}
	// Sub across references must convert first.
	air := SPL{DB: 114, Ref: RefPressureAir}
	water := air.Rereference(RefPressureWater)
	if got := float64(water.Sub(air)); math.Abs(got) > 1e-9 {
		t.Fatalf("Sub of same pressure across refs = %v, want 0", got)
	}
}

func TestSPLFromNonPositivePressure(t *testing.T) {
	s := SPLFromPressure(0, RefPressureWater)
	if !math.IsInf(s.DB, -1) {
		t.Fatalf("SPLFromPressure(0) = %v, want -Inf", s.DB)
	}
}

func TestSPLString(t *testing.T) {
	if got := WaterSPL(140).String(); !strings.Contains(got, "1µPa") {
		t.Fatalf("water SPL string = %q, want 1µPa reference", got)
	}
	if got := (SPL{DB: 114, Ref: RefPressureAir}).String(); !strings.Contains(got, "20µPa") {
		t.Fatalf("air SPL string = %q, want 20µPa reference", got)
	}
	if got := (SPL{DB: 100, Ref: 1}).String(); !strings.Contains(got, "re 1Pa") {
		t.Fatalf("custom SPL string = %q, want custom reference", got)
	}
}

func TestDecibelString(t *testing.T) {
	if got := Decibel(-28).String(); got != "-28dB" {
		t.Fatalf("Decibel.String = %q", got)
	}
}

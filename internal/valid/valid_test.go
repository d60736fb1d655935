package valid

import (
	"math"
	"testing"
	"time"

	"deepnote/internal/units"
)

func TestChecks(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		err  error
		ok   bool
	}{
		{"count at min", AtLeast("n", 1, 1), true},
		{"count below min", AtLeast("n", 0, 1), false},
		{"zero allowed", AtLeast("x", 0.0, 0), true},
		{"NaN at least", AtLeast("x", nan, 0), false},
		{"+Inf at least", AtLeast("x", inf, 0), false},
		{"negative duration", AtLeast("d", -time.Second, 0), false},
		{"positive distance", Positive("d", 3*units.Meter), true},
		{"zero positive", Positive("d", units.Distance(0)), false},
		{"NaN positive", Positive("f", units.Frequency(nan)), false},
		{"+Inf positive", Positive("r", inf), false},
		{"fraction edge", In("p", 1.0, 0, 1), true},
		{"fraction above", In("p", 1.5, 0, 1), false},
		{"NaN fraction", In("p", nan, 0, 1), false},
		{"int range", In("s", 7, 0, 6), false},
	} {
		if (c.err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, c.err, c.ok)
		}
	}
}

func TestSeconds(t *testing.T) {
	for _, c := range []struct {
		s    float64
		want time.Duration
		ok   bool
	}{
		{1.5, 1500 * time.Millisecond, true},
		{0, 0, true},
		{-2, -2 * time.Second, true},
		{9e9, 9e9 * time.Second, true},
		{1e12, 0, false},
		{-1e12, 0, false},
		{math.NaN(), 0, false},
		{math.Inf(1), 0, false},
		{math.Inf(-1), 0, false},
	} {
		d, err := Seconds("-runtime", c.s)
		if (err == nil) != c.ok || d != c.want {
			t.Errorf("Seconds(%v) = %v, %v; want %v, ok=%v", c.s, d, err, c.want, c.ok)
		}
	}
	_, err := Seconds("-runtime", 1e12)
	if got, want := err.Error(), "-runtime 1e+12: not a duration in seconds"; got != want {
		t.Fatalf("error %q, want %q", got, want)
	}
}

func TestFirstNamesTheField(t *testing.T) {
	if err := First("pkg: Spec", nil, nil); err != nil {
		t.Fatalf("no failures: %v", err)
	}
	err := First("pkg: Spec", nil, AtLeast("Count", 0, 1), Positive("Rate", -1.0))
	if got, want := err.Error(), "pkg: Spec.Count 0 must be finite and ≥ 1"; got != want {
		t.Fatalf("error %q, want %q", got, want)
	}
}

package cluster

import (
	"strings"
	"testing"

	"deepnote/internal/hdd"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/water"
)

// TestLayoutPointBlankClamp: a speaker co-located with its target is the
// paper's pressed-against-the-wall geometry, clamped to 1 cm.
func TestLayoutPointBlankClamp(t *testing.T) {
	l := LineLayout(3, 2*units.Meter).WithSpeakersAt(sig.NewTone(650*units.Hz), 0)
	if d := l.SpeakerDistance(0, 0); d != PointBlank {
		t.Fatalf("co-located speaker distance = %v, want %v", d, PointBlank)
	}
	if d := l.SpeakerDistance(0, 1); d != 2*units.Meter {
		t.Fatalf("next-container distance = %v, want 2 m", d)
	}
	if d := l.SpeakerDistance(0, 2); d != 4*units.Meter {
		t.Fatalf("two-hop distance = %v, want 4 m", d)
	}
}

// TestLayoutVibrationFallsWithDistance: farther containers always see
// weaker excitation from the same speaker.
func TestLayoutVibrationFallsWithDistance(t *testing.T) {
	l := LineLayout(6, 2*units.Meter).WithSpeakersAt(sig.NewTone(650*units.Hz), 0)
	a, err := l.Containers[0].Scenario.Assembly()
	if err != nil {
		t.Fatal(err)
	}
	model := hdd.Barracuda500()
	prev := -1.0
	for c := 0; c < 6; c++ {
		amp := l.VibrationAt(c, a, model, nil).Amplitude
		if c > 0 && amp >= prev {
			t.Fatalf("container %d amp %.6f not below container %d amp %.6f", c, amp, c-1, prev)
		}
		prev = amp
	}
}

// TestLayoutSuperpositionAdds: two same-frequency speakers excite a
// container at least as hard as either alone (coherent in-phase sum).
func TestLayoutSuperpositionAdds(t *testing.T) {
	tone := sig.NewTone(650 * units.Hz)
	l := LineLayout(4, 1*units.Meter).WithSpeakersAt(tone, 0, 1)
	a, err := l.Containers[0].Scenario.Assembly()
	if err != nil {
		t.Fatal(err)
	}
	model := hdd.Barracuda500()
	both := l.VibrationAt(2, a, model, []bool{true, true}).Amplitude
	only0 := l.VibrationAt(2, a, model, []bool{true, false}).Amplitude
	only1 := l.VibrationAt(2, a, model, []bool{false, true}).Amplitude
	if only0 <= 0 || only1 <= 0 {
		t.Fatalf("single-speaker amplitudes must be positive, got %.6f / %.6f", only0, only1)
	}
	if both < only0 || both < only1 {
		t.Fatalf("superposed amp %.6f below single-speaker amps %.6f / %.6f", both, only0, only1)
	}
	if diff := both - (only0 + only1); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("same-frequency sources should add coherently: %.9f vs %.9f", both, only0+only1)
	}
}

// TestLayoutRejectsDistinctFrequencies: speakers that emit different
// frequencies are rejected by Validate and so by New, not superposed into
// one tone.
func TestLayoutRejectsDistinctFrequencies(t *testing.T) {
	l := LineLayout(6, 1*units.Meter)
	l.Speakers = []SpeakerSite{
		{Name: "a", Pos: l.Containers[0].Pos, Tone: sig.NewTone(650 * units.Hz)},
		{Name: "b", Pos: l.Containers[0].Pos, Tone: sig.NewTone(5000 * units.Hz)},
	}
	if _, err := New(Config{Layout: l}); err == nil || !strings.Contains(err.Error(), "one frequency") {
		t.Fatalf("New = %v, want a one-frequency rejection", err)
	}
	l.Speakers[1].Tone = sig.Tone{Freq: 650 * units.Hz, Amplitude: 0.5}
	if err := l.Validate(); err != nil {
		t.Fatalf("one frequency at two drive levels must validate: %v", err)
	}
}

// TestLayoutSilencesTargetOnly: the acceptance physics — a point-blank
// 650 Hz speaker servo-locks its own container while a 2 m neighbor
// stays far below every fault threshold. Packed at 4 cm, the same
// speaker's spill-over servo-locks the neighbor too, and no further.
func TestLayoutSilencesTargetOnly(t *testing.T) {
	model := hdd.Barracuda500()
	amps := func(t *testing.T, spacing units.Distance) []float64 {
		t.Helper()
		l := LineLayout(6, spacing).WithSpeakersAt(sig.NewTone(650*units.Hz), 0)
		a, err := l.Containers[0].Scenario.Assembly()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(l.Containers))
		for c := range out {
			out[c] = l.VibrationAt(c, a, model, nil).Amplitude
		}
		return out
	}
	t.Run("2m", func(t *testing.T) {
		far := amps(t, 2*units.Meter)
		if far[0] < model.ServoLockFrac {
			t.Fatalf("point-blank amp %.4f below servo lock %.2f: target not silenced", far[0], model.ServoLockFrac)
		}
		if margin := model.WriteFaultFrac - far[1]; margin < 5*model.BaseJitterFrac {
			t.Fatalf("neighbor amp %.4f too close to write fault %.2f (margin %.4f)",
				far[1], model.WriteFaultFrac, margin)
		}
	})
	t.Run("4cm", func(t *testing.T) {
		if near := amps(t, 4*units.Centimeter); near[1] < model.ServoLockFrac || near[2] >= model.ServoLockFrac {
			t.Fatalf("4 cm spacing: amps %.4f, want exactly containers 0 and 1 at or past servo lock %.2f",
				near[:3], model.ServoLockFrac)
		}
	})
}

// TestLayoutMediumZeroVsUnset pins the pointer semantics of
// Layout.Medium: nil means "use the tank default", while an explicit
// pointer — even to an all-zero Medium (0 °C freshwater at the surface)
// — is honored. The value-type version of this field silently swapped a
// legitimate zero medium for the tank default.
func TestLayoutMediumZeroVsUnset(t *testing.T) {
	unset := LineLayout(2, 1*units.Meter)
	unset.Medium = nil
	if got, want := unset.EffectiveMedium(), water.FreshwaterTank(); got != want {
		t.Fatalf("nil Medium: EffectiveMedium = %v, want tank default %v", got, want)
	}

	zero := LineLayout(2, 1*units.Meter)
	zero.Medium = Ptr(water.Medium{})
	if got := zero.EffectiveMedium(); got != (water.Medium{}) {
		t.Fatalf("explicit zero Medium replaced with %v", got)
	}
	// The distinction must be observable in the physics, not just the
	// struct: 0 °C water carries sound measurably slower than the 21 °C
	// tank (~1403 vs ~1481 m/s).
	if cz, ct := zero.EffectiveMedium().SoundSpeed(), unset.EffectiveMedium().SoundSpeed(); cz >= ct {
		t.Fatalf("zero-medium sound speed %.1f not below tank %.1f — zero was not honored", cz, ct)
	}
}

// TestWithSpeakersAtPanicsOutOfRange pins the bugfix for silently
// skipped out-of-range speaker indices: both edges beyond the container
// range panic, both boundary indices inside it do not.
func TestWithSpeakersAtPanicsOutOfRange(t *testing.T) {
	tone := sig.NewTone(650 * units.Hz)
	l := LineLayout(3, 1*units.Meter)

	mustPanic := func(idx int) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("WithSpeakersAt(%d) did not panic", idx)
			}
		}()
		l.WithSpeakersAt(tone, idx)
	}
	mustPanic(-1)
	mustPanic(len(l.Containers))

	got := l.WithSpeakersAt(tone, 0, len(l.Containers)-1)
	if len(got.Speakers) != 2 {
		t.Fatalf("boundary indices produced %d speakers, want 2", len(got.Speakers))
	}
}

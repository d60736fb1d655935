package sig

import (
	"math"
	"testing"
)

func TestAmbientCorpusHasFiveScenarios(t *testing.T) {
	kinds := AmbientKinds()
	if len(kinds) != 5 {
		t.Fatalf("corpus has %d scenarios, want 5", len(kinds))
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		if k == AmbientNone {
			t.Fatal("corpus must not include silence")
		}
		if seen[k.String()] {
			t.Fatalf("duplicate scenario name %q", k)
		}
		seen[k.String()] = true
	}
}

func TestAmbientRenderDeterministic(t *testing.T) {
	for _, k := range AmbientKinds() {
		a := NewAmbient(k, 7)
		w1 := make([]float64, 512)
		w2 := make([]float64, 512)
		a.RenderInto(3, 4096, w1)
		a.RenderInto(3, 4096, w2)
		for i := range w1 {
			if w1[i] != w2[i] {
				t.Fatalf("%v: window 3 not reproducible at sample %d", k, i)
			}
		}
		// A different seed must produce a different realization.
		w3 := make([]float64, 512)
		NewAmbient(k, 8).RenderInto(3, 4096, w3)
		same := true
		for i := range w1 {
			if w1[i] != w3[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("%v: seeds 7 and 8 rendered identically", k)
		}
	}
}

func TestAmbientRenderAddsEnergy(t *testing.T) {
	for _, k := range AmbientKinds() {
		a := NewAmbient(k, 1)
		var ms float64
		buf := make([]float64, 512)
		for w := 0; w < 32; w++ {
			for i := range buf {
				buf[i] = 0
			}
			a.RenderInto(w, 4096, buf)
			for _, x := range buf {
				ms += x * x
			}
		}
		rms := math.Sqrt(ms / float64(32*512))
		if rms <= 0 {
			t.Fatalf("%v rendered silence", k)
		}
		// Benign sources stay far below the servo-lock amplitude (0.45):
		// they are confusable with a stealthy tone, not with the attack.
		if rms > 0.1 {
			t.Fatalf("%v RMS = %.4f, implausibly loud for a benign source", k, rms)
		}
	}
}

func TestAmbientLevelPointerSemantics(t *testing.T) {
	a := NewAmbient(AmbientRain, 1)
	if a.broadbandSigma(0) <= 0 {
		t.Fatal("nil Level must mean nominal, not silent")
	}
	zero := 0.0
	a.Level = &zero
	if a.broadbandSigma(0) != 0 {
		t.Fatal("explicit Level 0 must be honored as silence")
	}
	buf := make([]float64, 64)
	a.RenderInto(0, 4096, buf)
	for _, x := range buf {
		if x != 0 {
			t.Fatal("explicit Level 0 must render nothing")
		}
	}
	double := 2.0
	a.Level = &double
	if got, want := a.NominalSigma(), 2*NewAmbient(AmbientRain, 1).NominalSigma(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Level scaling: σ = %g, want %g", got, want)
	}
}

func TestAmbientStructure(t *testing.T) {
	// The pump's comb: five harmonics of 120 Hz, three inside the
	// vulnerable band, each loud enough to trip a naive amplitude gate.
	pump := NewAmbient(AmbientPump, 3)
	comps := pump.components(0)
	if len(comps) != 5 {
		t.Fatalf("pump lines = %d, want 5", len(comps))
	}
	inBand := 0
	for i, c := range comps {
		if c.Freq.Hertz() != float64(120*(i+1)) {
			t.Fatalf("pump harmonic %d at %v, want %v Hz", i, c.Freq, 120*(i+1))
		}
		if c.Freq >= 300 && c.Freq <= 1400 {
			inBand++
			if c.Amp < 0.02 {
				t.Fatalf("in-band pump harmonic at %v too quiet (%.4f) to stress the classifier", c.Freq, c.Amp)
			}
		}
	}
	if inBand < 3 {
		t.Fatalf("pump puts %d harmonics in the vulnerable band, want ≥ 3", inBand)
	}
	// Rain and shrimp are pure broadband.
	for _, k := range []AmbientKind{AmbientRain, AmbientShrimp, AmbientCreak} {
		if got := NewAmbient(k, 3).components(0); len(got) != 0 {
			t.Fatalf("%v must have no narrowband lines, got %d", k, len(got))
		}
	}
	// Shrimp bursts: across many windows both loud and quiet ones occur.
	shrimp := NewAmbient(AmbientShrimp, 3)
	base := shrimp.NominalSigma()
	bursts, calm := 0, 0
	for w := 0; w < 64; w++ {
		if s := shrimp.broadbandSigma(w); s > 2*base {
			bursts++
		} else {
			calm++
		}
	}
	if bursts == 0 || calm == 0 {
		t.Fatalf("shrimp bursts/calm = %d/%d, want a mix", bursts, calm)
	}
}

// TestRenderScaledInto pins the unit-conversion contract the exfil channel
// relies on: scale 1 is bit-identical to RenderInto, any other scale is an
// exact per-sample multiple of the same (seed, kind, w) waveform, and
// scale 0 renders nothing.
func TestRenderScaledInto(t *testing.T) {
	for _, kind := range AmbientKinds() {
		a := NewAmbient(kind, 11)
		const n, rate = 512, 4096.0
		for w := 0; w < 4; w++ {
			plain := make([]float64, n)
			a.RenderInto(w, rate, plain)
			unit := make([]float64, n)
			a.RenderScaledInto(w, rate, 1, unit)
			scaled := make([]float64, n)
			const scale = 7.25e6
			a.RenderScaledInto(w, rate, scale, scaled)
			zero := make([]float64, n)
			a.RenderScaledInto(w, rate, 0, zero)
			for i := 0; i < n; i++ {
				if unit[i] != plain[i] {
					t.Fatalf("%v w%d sample %d: scale-1 %g differs from RenderInto %g", kind, w, i, unit[i], plain[i])
				}
				if want := scale * plain[i]; math.Abs(scaled[i]-want) > 1e-9*math.Abs(want) {
					t.Fatalf("%v w%d sample %d: scaled %g, want %g", kind, w, i, scaled[i], want)
				}
				if zero[i] != 0 {
					t.Fatalf("%v w%d sample %d: scale-0 wrote %g", kind, w, i, zero[i])
				}
			}
		}
	}
}

// components returns window w's narrowband lines.
func (a Ambient) components(w int) []AmbientComponent {
	comps, _ := a.params(w, nil, a.rng(w))
	return comps
}

// broadbandSigma returns window w's broadband telemetry jitter (1σ,
// track-pitch fractions).
func (a Ambient) broadbandSigma(w int) float64 {
	_, sigma := a.params(w, nil, a.rng(w))
	return sigma
}

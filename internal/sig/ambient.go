// The benign ambient-source corpus: every underwater sound the attack
// fingerprinter must NOT alarm on. Each scenario is a seeded, parameterized
// generator of drive-tray telemetry components — narrowband lines plus
// broadband noise — deterministic per (seed, window index), so campaigns
// replay bit-for-bit at any worker count. Broadband levels for the
// open-water sources come from the Wenz curves in internal/water; the
// facility-local sources (pump, thermal creak) use fixed presets.
package sig

import (
	"fmt"
	"math"
	"math/rand"

	"deepnote/internal/parallel"
	"deepnote/internal/units"
	"deepnote/internal/water"
)

// AmbientKind enumerates the benign ambient scenarios.
type AmbientKind int

const (
	// AmbientNone is silence — only the drive's own sensor noise.
	AmbientNone AmbientKind = iota
	// AmbientShipTraffic is a passing vessel: a blade-rate harmonic comb
	// on a slowly drifting fundamental plus low-frequency machinery
	// broadband. The comb's upper harmonics graze the vulnerable band.
	AmbientShipTraffic
	// AmbientRain is surface rain: pure broadband with a slow
	// shower-intensity envelope, no tonal structure.
	AmbientRain
	// AmbientShrimp is a snapping-shrimp colony: impulsive broadband
	// crackle — some windows loud, some quiet, never tonal.
	AmbientShrimp
	// AmbientPump is the facility's own coolant pump: a strong mains-rate
	// line at 120 Hz whose harmonics reach well into the vulnerable band
	// with amplitudes a naive threshold would flag. The classifier must
	// recognize the harmonic comb rooted below the band.
	AmbientPump
	// AmbientCreak is thermal-cycling hull creak: near silence with rare
	// broadband pops.
	AmbientCreak
)

// AmbientKinds returns the five benign scenarios of the corpus.
func AmbientKinds() []AmbientKind {
	return []AmbientKind{AmbientShipTraffic, AmbientRain, AmbientShrimp, AmbientPump, AmbientCreak}
}

// String names the scenario.
func (k AmbientKind) String() string {
	switch k {
	case AmbientNone:
		return "none"
	case AmbientShipTraffic:
		return "ship-traffic"
	case AmbientRain:
		return "rain"
	case AmbientShrimp:
		return "snapping-shrimp"
	case AmbientPump:
		return "facility-pump"
	case AmbientCreak:
		return "thermal-creak"
	}
	return fmt.Sprintf("ambient(%d)", int(k))
}

// AmbientComponent is one narrowband line of an ambient scenario, in the
// same units as drive off-track telemetry (track-pitch fractions).
type AmbientComponent struct {
	Freq  units.Frequency
	Amp   float64
	Phase float64
}

// Ambient is a benign ambient-noise scenario instance.
type Ambient struct {
	Kind AmbientKind
	// Level scales the scenario's nominal telemetry amplitude. Nil means
	// the default 1.0; Ptr(0) is an explicitly silent instance and is
	// honored (the zero-vs-unset convention of the other spec structs).
	Level *float64
	// Seed derives all per-window randomness (0 behaves as seed 1).
	Seed int64
}

// NewAmbient returns a nominal-level scenario instance.
func NewAmbient(kind AmbientKind, seed int64) Ambient {
	return Ambient{Kind: kind, Seed: seed}
}

func (a Ambient) level() float64 {
	if a.Level == nil {
		return 1
	}
	if *a.Level < 0 {
		return 0
	}
	return *a.Level
}

func (a Ambient) seed() int64 {
	if a.Seed == 0 {
		return 1
	}
	return a.Seed
}

// rng returns the deterministic generator for window w. The stream
// depends only on (seed, kind, w) — never on render order — so scenarios
// replay identically wherever the campaign runs them.
func (a Ambient) rng(w int) *rand.Rand {
	base := parallel.SeedFor(a.seed(), int(a.Kind))
	return rand.New(rand.NewSource(parallel.SeedFor(base, w)))
}

// wenzSigma maps a Wenz band level (dB re 1 µPa over the vulnerable band)
// to the broadband telemetry jitter it induces, anchored so a 90 dB band
// level shakes the tray by 0.004 track-pitch fractions (1σ). The anchor is
// the tray's mechanical-isolation calibration constant.
func wenzSigma(bandDB float64) float64 {
	return 0.004 * math.Pow(10, (bandDB-90)/20)
}

// The open-water scenario levels integrate the Wenz model over the
// servo-vulnerable band once at package init — the corpus presets are
// constants of the model, not per-run state.
var (
	shipBandSigma   = wenzSigma(water.AmbientBandLevel(300*units.Hz, 1400*units.Hz, 0.9, 3))
	rainBandSigma   = wenzSigma(water.AmbientBandLevel(300*units.Hz, 1400*units.Hz, 0.3, 13))
	shrimpBandSigma = wenzSigma(water.AmbientBandLevel(300*units.Hz, 1400*units.Hz, 0.2, 5))
)

// params returns the narrowband lines (appended to dst) and the broadband
// 1σ jitter for window w, drawing all randomness from rng in a fixed
// order so callers can continue the same stream afterwards.
func (a Ambient) params(w int, dst []AmbientComponent, rng *rand.Rand) ([]AmbientComponent, float64) {
	lvl := a.level()
	if lvl == 0 {
		return dst, 0
	}
	switch a.Kind {
	case AmbientShipTraffic:
		// Blade-rate fundamental drifting with the vessel's closest-point
		// approach; ten harmonics with a shallow roll-off.
		f0 := 42 + 8*math.Sin(2*math.Pi*float64(w)/96)
		for k := 1; k <= 10; k++ {
			dst = append(dst, AmbientComponent{
				Freq:  units.Frequency(f0 * float64(k)),
				Amp:   lvl * 0.008 / math.Pow(float64(k), 0.9),
				Phase: 2 * math.Pi * rng.Float64(),
			})
		}
		return dst, lvl * shipBandSigma
	case AmbientRain:
		env := 1 + 0.25*math.Sin(2*math.Pi*float64(w)/48)
		return dst, lvl * rainBandSigma * env
	case AmbientShrimp:
		sigma := 0.75 * lvl * shrimpBandSigma
		if rng.Float64() < 0.3 { // a crackle burst hits this window
			sigma = lvl * 0.02
		}
		return dst, sigma
	case AmbientPump:
		// Mains-rate line with harmonics into the vulnerable band; the
		// 360/480/600 Hz lines exceed a naive amplitude threshold.
		for k := 1; k <= 5; k++ {
			jitter := 0.95 + 0.1*rng.Float64()
			dst = append(dst, AmbientComponent{
				Freq:  units.Frequency(120 * k),
				Amp:   lvl * 0.05 * jitter / math.Sqrt(float64(k)),
				Phase: 2 * math.Pi * rng.Float64(),
			})
		}
		return dst, lvl * 0.004
	case AmbientCreak:
		sigma := lvl * 0.002
		if rng.Float64() < 0.08 { // a hull pop
			sigma = lvl * 0.03
		}
		return dst, sigma
	}
	return dst, 0
}

// NominalSigma returns the scenario's baseline broadband jitter — the
// non-burst level experiments use to place a hostile tone at a target SNR
// over the ambient floor.
func (a Ambient) NominalSigma() float64 {
	lvl := a.level()
	switch a.Kind {
	case AmbientShipTraffic:
		return lvl * shipBandSigma
	case AmbientRain:
		return lvl * rainBandSigma
	case AmbientShrimp:
		return 0.75 * lvl * shrimpBandSigma
	case AmbientPump:
		return lvl * 0.004
	case AmbientCreak:
		return lvl * 0.002
	}
	return 0
}

// RenderInto adds window w's waveform into out at the given sample rate
// (out's length is the window length; existing contents are preserved so
// scenarios stack on top of the attack and sensor noise).
func (a Ambient) RenderInto(w int, sampleRateHz float64, out []float64) {
	a.RenderScaledInto(w, sampleRateHz, 1, out)
}

// RenderScaledInto is RenderInto with every sample multiplied by scale —
// the same (seed, kind, w) waveform re-expressed in another unit system.
// The exfil receiver uses it to hear the tray-telemetry corpus as pressure
// at a hydrophone (scale = µPa per track-pitch fraction); scale 1 is
// bit-identical to RenderInto.
func (a Ambient) RenderScaledInto(w int, sampleRateHz, scale float64, out []float64) {
	if a.Kind == AmbientNone || sampleRateHz <= 0 || len(out) == 0 || scale == 0 {
		return
	}
	rng := a.rng(w)
	var lines [16]AmbientComponent
	comps, sigma := a.params(w, lines[:0], rng)
	t0 := float64(w) * float64(len(out)) / sampleRateHz
	dt := 1 / sampleRateHz
	for _, c := range comps {
		wv := c.Freq.AngularVelocity()
		amp := scale * c.Amp
		for i := range out {
			out[i] += amp * math.Sin(wv*(t0+float64(i)*dt)+c.Phase)
		}
	}
	if sigma > 0 {
		// The noise draws continue the same per-window stream the line
		// parameters came from, so the whole window is one deterministic
		// function of (seed, kind, w).
		sigma *= scale
		for i := range out {
			out[i] += sigma * rng.NormFloat64()
		}
	}
}

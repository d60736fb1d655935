// The physical transmitter: malware with disk access but no network
// schedules back-and-forth seeks; the repetition rate sets a fundamental
// and the head-stack assembly's resonances amplify its harmonics. The
// modulator owns the per-symbol seek-pattern dictionary — which stroke,
// repetition rate, and harmonic carry each bit — validated against the
// hdd model's actuator limits, and converts it into tray excitation (for
// the defender's telemetry path) and radiated source level (for the
// waterborne path).
package exfil

import (
	"fmt"
	"math"

	"deepnote/internal/hdd"
	"deepnote/internal/units"
)

// TxConfig tunes the physical transmitter. Pointer fields: nil = default,
// explicit values validated and honored.
type TxConfig struct {
	// Model is the transmitting drive. Nil = Barracuda500 (the paper's
	// victim — here the insider's instrument).
	Model *hdd.Model
	// StrokeBytes is the LBA span of each back-and-forth seek. Nil = the
	// model's TrackBytes (the shortest, fastest stroke). Must be > 0.
	StrokeBytes *int64
	// Harmonic0/Harmonic1 pick which harmonic of the seek repetition rate
	// carries Tone0/Tone1. Nil = 2 and 3. Must be ≥ 1. Higher harmonics
	// let a slow actuator reach high tones at the cost of amplitude
	// (roll-off ∝ 1/harmonic).
	Harmonic0, Harmonic1 *int
	// BaseSeekFrac is the tray self-excitation of full-rate seeking at
	// unit harmonic content and unit mechanical response, in track-pitch
	// fractions. Nil = 0.06; must be > 0.
	BaseSeekFrac *float64
	// BaseSourceSPL is the radiated source level of that same reference
	// emission, in dB re 1 µPa at 1 m after mount and enclosure coupling.
	// Nil = 118; must be > 0.
	BaseSourceSPL *float64
}

type txResolved struct {
	model        hdd.Model
	strokeBytes  int64
	harmonic     [2]int
	baseSeekFrac float64
	baseSrcSPL   float64
}

func (c TxConfig) resolve() (txResolved, error) {
	r := txResolved{
		model:        hdd.Barracuda500(),
		harmonic:     [2]int{2, 3},
		baseSeekFrac: 0.06,
		baseSrcSPL:   118,
	}
	if c.Model != nil {
		r.model = *c.Model
	}
	r.strokeBytes = r.model.TrackBytes
	if c.StrokeBytes != nil {
		if *c.StrokeBytes <= 0 {
			return r, fmt.Errorf("%w: StrokeBytes %d must be > 0", ErrConfig, *c.StrokeBytes)
		}
		r.strokeBytes = *c.StrokeBytes
	}
	if c.Harmonic0 != nil {
		if *c.Harmonic0 < 1 {
			return r, fmt.Errorf("%w: Harmonic0 %d must be ≥ 1", ErrConfig, *c.Harmonic0)
		}
		r.harmonic[0] = *c.Harmonic0
	}
	if c.Harmonic1 != nil {
		if *c.Harmonic1 < 1 {
			return r, fmt.Errorf("%w: Harmonic1 %d must be ≥ 1", ErrConfig, *c.Harmonic1)
		}
		r.harmonic[1] = *c.Harmonic1
	}
	if c.BaseSeekFrac != nil {
		if *c.BaseSeekFrac <= 0 {
			return r, fmt.Errorf("%w: BaseSeekFrac %g must be > 0", ErrConfig, *c.BaseSeekFrac)
		}
		r.baseSeekFrac = *c.BaseSeekFrac
	}
	if c.BaseSourceSPL != nil {
		if *c.BaseSourceSPL <= 0 {
			return r, fmt.Errorf("%w: BaseSourceSPL %g must be > 0", ErrConfig, *c.BaseSourceSPL)
		}
		r.baseSrcSPL = *c.BaseSourceSPL
	}
	return r, nil
}

// SeekPattern describes one dictionary entry: how the actuator emits one
// symbol's tone.
type SeekPattern struct {
	Bit         int
	StrokeBytes int64
	// SeekRate is the back-and-forth repetition rate in Hz.
	SeekRate float64
	// Harmonic of SeekRate that lands on Tone.
	Harmonic int
	Tone     units.Frequency
}

// Modulator binds a resolved modem and transmitter into a validated
// symbol dictionary.
type Modulator struct {
	m  modem
	tx txResolved
	// pattern[b] is the dictionary entry for bit b.
	pattern [2]SeekPattern
}

// NewModulator validates the configs and the dictionary: every tone must
// be a reachable harmonic of a seek rate the actuator can sustain over
// the configured stroke.
func NewModulator(mc ModemConfig, tc TxConfig) (*Modulator, error) {
	m, err := mc.resolve()
	if err != nil {
		return nil, err
	}
	tx, err := tc.resolve()
	if err != nil {
		return nil, err
	}
	mod := &Modulator{m: m, tx: tx}
	maxRate := tx.model.MaxSeekRate(tx.strokeBytes)
	for b, tone := range [2]units.Frequency{m.tone0, m.tone1} {
		h := tx.harmonic[b]
		rate := tone.Hertz() / float64(h)
		if rate > maxRate {
			return nil, fmt.Errorf("%w: tone %v needs seek rate %.0f Hz at harmonic %d, above the actuator limit %.0f Hz for a %d-byte stroke",
				ErrConfig, tone, rate, h, maxRate, tx.strokeBytes)
		}
		mod.pattern[b] = SeekPattern{
			Bit:         b,
			StrokeBytes: tx.strokeBytes,
			SeekRate:    rate,
			Harmonic:    h,
			Tone:        tone,
		}
	}
	return mod, nil
}

// Modem returns the public handle on the modulator's resolved modem —
// frame geometry, encoding, and rates.
func (mod *Modulator) Modem() *Modem { return &Modem{m: mod.m} }

// silent reports whether bit b emits nothing under the current scheme.
func (mod *Modulator) silent(b int) bool {
	return mod.m.scheme == SchemeOOK && b == 0
}

// emissionGain is the dimensionless amplitude factor of bit b's emission:
// harmonic roll-off times the HSA's mechanical amplification at the tone.
func (mod *Modulator) emissionGain(b int) float64 {
	p := mod.pattern[b]
	return 1 / float64(p.Harmonic) * mod.tx.model.MechanicalResponse(p.Tone)
}

// TxFrac returns bit b's tray self-excitation amplitude in track-pitch
// fractions — what the defender's tray telemetry sensor sees. OOK bit 0
// is silence.
func (mod *Modulator) TxFrac(b int) float64 {
	if mod.silent(b) {
		return 0
	}
	return mod.tx.baseSeekFrac * mod.emissionGain(b)
}

// SourceSPL returns bit b's radiated source level at RefDist, and false
// for a silent symbol.
func (mod *Modulator) SourceSPL(b int) (units.SPL, bool) {
	if mod.silent(b) {
		return units.SPL{}, false
	}
	g := mod.emissionGain(b)
	return units.WaterSPL(mod.tx.baseSrcSPL + 20*math.Log10(g)), true
}

// RefDist is the reference distance of SourceSPL.
func (mod *Modulator) RefDist() units.Distance { return 1 * units.Meter }

// AppendTelemetry renders the bits' modulated tray waveform (track-pitch
// fractions, one sample per 1/SampleRate) onto out and returns it. The
// time base continues from len(out) at the configured sample rate, so
// consecutive calls produce a phase-continuous stream.
func (mod *Modulator) AppendTelemetry(bits []byte, out []float64) []float64 {
	L := mod.m.symbolLen
	dt := 1 / mod.m.sampleRate
	for _, bit := range bits {
		b := int(bit & 1)
		amp := mod.TxFrac(b)
		if amp == 0 {
			out = append(out, make([]float64, L)...)
			continue
		}
		wv := mod.pattern[b].Tone.AngularVelocity()
		t0 := float64(len(out)) * dt
		for i := 0; i < L; i++ {
			out = append(out, amp*math.Sin(wv*(t0+float64(i)*dt)))
		}
	}
	return out
}

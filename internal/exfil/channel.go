// The waterborne link: the modulator's radiated tones cross the facility
// water to a hydrophone via the same propagation model the attack and
// sonar layers use (spreading + absorption + optional Lloyd's-mirror
// surface bounce, through sonar.Array.ReceiveLevel), then the receiver
// hears them buried in the sig ambient corpus and the hydrophone's own
// noise floor. All pressures are in µPa; the ambient corpus — defined in
// tray-telemetry units — is re-expressed through the same 90 dB ↔ 0.004
// track-pitch-fraction calibration anchor the telemetry path uses.
package exfil

import (
	"math"
	"math/rand"

	"deepnote/internal/cluster"
	"deepnote/internal/parallel"
	"deepnote/internal/sig"
	"deepnote/internal/sonar"
	"deepnote/internal/units"
)

// paPerFrac converts the ambient corpus's track-pitch-fraction amplitudes
// into µPa of waterborne pressure, inverting the wenz calibration anchor
// (a 90 dB re 1 µPa band level shakes the tray 0.004 fractions).
var paPerFrac = units.WaterSPL(90).Pressure().Pascals() * 1e6 / 0.004

// ambientWindow is the block length the ambient corpus is rendered in —
// the corpus's native 512-sample windows, so burst structure (shrimp
// crackle, hull pops) lands identically in telemetry and waterborne form.
const ambientWindow = 512

// hydrophoneNoise is the hydrophone's self-noise floor, matching the sonar
// layer's default.
var hydrophoneNoise = units.WaterSPL(70)

// Link is one transmitter → hydrophone hop.
type Link struct {
	// Array is the receiving hydrophone array (typically built from the
	// cluster layout with sonar.FacilityArray or RingArray, so medium and
	// surface depth match the facility). The link listens on the element
	// with the strongest received carrier.
	Array sonar.Array
	// TxPos is the transmitting container's position.
	TxPos cluster.Vec3
	// Ambient is the background soundscape at the hydrophone.
	Ambient sig.Ambient
	// Seed isolates this link's noise draws.
	Seed int64
}

// LinkBudget reports the link's resolved signal levels.
type LinkBudget struct {
	// Hydrophone is the array element the receiver listens on.
	Hydrophone int
	// RxSPL[b] is bit b's received carrier level there (zero SPL for a
	// silent OOK zero-symbol).
	RxSPL [2]units.SPL
	// RxAmp[b] is the corresponding peak pressure amplitude in µPa.
	RxAmp [2]float64
	// NoiseSigma is the per-sample hydrophone self-noise 1σ in µPa.
	NoiseSigma float64
	// AmbientSigma is the ambient background's nominal broadband 1σ in
	// µPa at the hydrophone.
	AmbientSigma float64
	// Lead is the noise-only lead-in before the first symbol, in samples.
	Lead int
}

// Render synthesizes the received waveform (µPa) for the bit stream:
// noise-only lead-in, then the modulated carrier at the received level,
// with the ambient corpus and hydrophone self-noise added throughout.
// Deterministic per (link seed, ambient seed).
func (l Link) Render(mod *Modulator, bits []byte) ([]float64, LinkBudget) {
	budget := LinkBudget{Hydrophone: -1}
	// Resolve per-bit received levels and pick the hydrophone that hears
	// the mark carrier best (lowest index wins ties, deterministically).
	var recs [2][]sonar.Reception
	for b := 0; b < 2; b++ {
		src, on := mod.SourceSPL(b)
		if !on {
			continue
		}
		recs[b] = l.Array.ReceiveLevel(l.TxPos, mod.pattern[b].Tone, src, mod.RefDist(), parallel.SeedFor(l.Seed, int(1+b)))
	}
	for i, r := range recs[1] {
		if budget.Hydrophone < 0 || r.SPL.DB > recs[1][budget.Hydrophone].SPL.DB {
			budget.Hydrophone = i
		}
	}
	if budget.Hydrophone < 0 {
		budget.Hydrophone = 0
	}
	for b := 0; b < 2; b++ {
		if recs[b] == nil {
			continue
		}
		spl := recs[b][budget.Hydrophone].SPL
		budget.RxSPL[b] = spl
		budget.RxAmp[b] = math.Sqrt2 * spl.Pressure().Pascals() * 1e6
	}

	budget.NoiseSigma = hydrophoneNoise.Pressure().Pascals() * 1e6
	budget.AmbientSigma = l.Ambient.NominalSigma() * paPerFrac

	L := mod.m.symbolLen
	rng := rand.New(rand.NewSource(parallel.SeedFor(l.Seed, 0)))
	budget.Lead = L/2 + rng.Intn(L)

	// One symbol of tail margin keeps the last frame decodable when
	// acquisition snaps to a grid point just past the true lead-in.
	n := budget.Lead + (len(bits)+1)*L
	padded := (n + ambientWindow - 1) / ambientWindow * ambientWindow
	out := make([]float64, padded)

	// Carrier.
	dt := 1 / mod.m.sampleRate
	for s, bit := range bits {
		b := int(bit & 1)
		amp := budget.RxAmp[b]
		if amp == 0 {
			continue
		}
		wv := mod.pattern[b].Tone.AngularVelocity()
		base := budget.Lead + s*L
		for i := 0; i < L; i++ {
			t := float64(base+i) * dt
			out[base+i] += amp * math.Sin(wv*t)
		}
	}
	// Ambient corpus, window by window so burst structure is preserved.
	for w := 0; w*ambientWindow < padded; w++ {
		l.Ambient.RenderScaledInto(w, mod.m.sampleRate, paPerFrac, out[w*ambientWindow:(w+1)*ambientWindow])
	}
	// Hydrophone self-noise.
	if budget.NoiseSigma > 0 {
		for i := range out {
			out[i] += budget.NoiseSigma * rng.NormFloat64()
		}
	}
	return out, budget
}

// Package sonar is the defender's acoustic surveillance layer: hydrophone
// arrays placed on the 3-D cluster layout, per-hydrophone received-signal
// simulation through the same water propagation model the attack crosses,
// pairwise TDOA extraction, and least-squares multilateration yielding a
// position estimate with covariance.
//
// The threat model follows the Deep Note paper's follow-up work on active
// localization of close-range adversarial acoustic sources: the attacker
// must put acoustic energy into the water to damage drives, and that same
// energy reaches the facility's hydrophones first-hand. A speaker keying
// on is therefore a detection event — the array hears the tone after the
// propagation delay, integrates one processing window to extract stable
// time-of-arrival measurements, and multilaterates the source position
// from pairwise arrival-time differences. The estimate feeds the cluster's
// closed-loop Defense policy (internal/cluster), which steers reads and
// preemptively re-places shards out of the predicted blast radius.
//
// Everything here is deterministic: receptions draw their timing noise
// from per-(hydrophone, event) seeds derived with parallel.SeedFor, so
// detection timelines and fixes are byte-identical at any worker count.
package sonar

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"deepnote/internal/acoustics"
	"deepnote/internal/cluster"
	"deepnote/internal/parallel"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/water"
)

// Hydrophone is one fixed listening element of the array.
type Hydrophone struct {
	Name string
	Pos  cluster.Vec3
}

// Array is a hydrophone array deployed in the facility's water body.
type Array struct {
	// Hydrophones are the listening elements. Four or more (non-coplanar)
	// elements localize in 3-D; exactly three fall back to a horizontal
	// fix at the array's mean depth; fewer cannot multilaterate.
	Hydrophones []Hydrophone
	// Medium is the shared water body — use Layout.EffectiveMedium() so
	// the array hears through the same water the attack crosses.
	Medium water.Medium
	// SurfaceDepth, when positive, enables the Lloyd's-mirror surface
	// bounce on the propagation paths, matching cluster.Layout.
	SurfaceDepth units.Distance
}

// The array's fixed signal processing.
const (
	// processingWindow is how much signal the correlator integrates
	// before a TDOA fix is available. It is the dominant term of
	// detection latency at facility scale, where propagation delays are
	// single-digit milliseconds.
	processingWindow = 100 * time.Millisecond
	// minSNRdB is the detection threshold in dB above noiseFloor.
	minSNRdB = 6
)

// noiseFloor is the ambient noise at each hydrophone: 70 dB re 1 µPa, a
// quiet-harbor figure. Received tones below minSNRdB above it are not
// detected.
var noiseFloor = units.WaterSPL(70)

// Validate checks the array geometry and medium.
func (a Array) Validate() error {
	if len(a.Hydrophones) == 0 {
		return fmt.Errorf("sonar: array has no hydrophones")
	}
	return a.Medium.Validate()
}

// RingArray places n hydrophones on a circle of the given radius around
// center in the horizontal plane, with alternating ±zStagger depth
// offsets so the array is non-coplanar and 3-D multilateration is well
// conditioned. The medium and surface depth are taken from the layout so
// the array hears through the water the attack actually crosses.
func RingArray(lay cluster.Layout, center cluster.Vec3, radius units.Distance, n int, zStagger units.Distance) Array {
	a := Array{
		Medium:       lay.EffectiveMedium(),
		SurfaceDepth: lay.SurfaceDepth,
	}
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		z := float64(zStagger)
		if i%2 == 1 {
			z = -z
		}
		a.Hydrophones = append(a.Hydrophones, Hydrophone{
			Name: fmt.Sprintf("hyd-%d", i),
			Pos: cluster.Vec3{
				X: center.X + float64(radius)*math.Cos(theta),
				Y: center.Y + float64(radius)*math.Sin(theta),
				Z: center.Z + z,
			},
		})
	}
	return a
}

// FacilityArray rings the layout's container field: the ring is centered
// on the container centroid with the given standoff beyond the farthest
// container. This is the standard surveillance deployment.
func FacilityArray(lay cluster.Layout, n int, standoff units.Distance) Array {
	c := ContainerCentroid(lay)
	maxR := 0.0
	for _, ct := range lay.Containers {
		if r := ct.Pos.Sub(c).Norm(); r > maxR {
			maxR = r
		}
	}
	return RingArray(lay, c, units.Distance(maxR)+standoff, n, 50*units.Centimeter)
}

// ContainerCentroid returns the mean container position.
func ContainerCentroid(lay cluster.Layout) cluster.Vec3 {
	var c cluster.Vec3
	if len(lay.Containers) == 0 {
		return c
	}
	for _, ct := range lay.Containers {
		c.X += ct.Pos.X
		c.Y += ct.Pos.Y
		c.Z += ct.Pos.Z
	}
	n := float64(len(lay.Containers))
	return cluster.Vec3{X: c.X / n, Y: c.Y / n, Z: c.Z / n}
}

// Reception is what one hydrophone hears from one source keying on.
type Reception struct {
	// Hydrophone indexes the array element.
	Hydrophone int
	// Delay is the true propagation delay from source to element.
	Delay time.Duration
	// SPL is the received level after spreading, absorption, and the
	// optional surface-bounce interference.
	SPL units.SPL
	// SNRdB is the received level above the ambient noise floor.
	SNRdB float64
	// Detected reports whether the element heard the tone at all
	// (SNRdB ≥ minSNRdB).
	Detected bool
	// TOA is the measured time of arrival relative to the source keying
	// on: the true delay plus SNR-dependent timing noise. Only valid
	// when Detected.
	TOA time.Duration
	// Sigma is the one-sigma timing error of the TOA measurement at this
	// element's SNR — the weight the multilateration solver uses. Only
	// valid when Detected.
	Sigma time.Duration
}

// minStandoff keeps the reception model out of the singular r→0 regime:
// a source cannot be closer to a hydrophone face than the paper's 1 cm
// point-blank reference geometry.
const minStandoff = 1 * units.Centimeter

// Receive simulates what every hydrophone hears when a source at pos
// keys on the given tone. The source is modeled with the paper's attack
// chain hardware (BG-2120 amplifier into an AQ339 projector) — the
// defender is localizing exactly the sources the attack model emits.
// seed isolates this event's noise draws; pass a distinct value per
// (event, source).
func (a Array) Receive(pos cluster.Vec3, tone sig.Tone, seed int64) []Reception {
	driven := acoustics.BG2120().Drive(tone)
	spk := acoustics.AQ339()
	return a.ReceiveLevel(pos, driven.Freq, spk.SourceLevel(driven), spk.RefDist, seed)
}

// ReceiveLevel is the generalized reception path: a narrowband source of
// arbitrary hardware at pos, described only by its frequency and source
// level at refDist. Receive delegates here with the attack-chain hardware;
// the exfiltration channel (internal/exfil) uses it directly with drive
// tray emissions, which are far quieter than any speaker the attack model
// owns. Propagation, SNR gating, and TOA noise match Receive exactly.
func (a Array) ReceiveLevel(pos cluster.Vec3, freq units.Frequency, src units.SPL, refDist units.Distance, seed int64) []Reception {
	c := a.Medium.SoundSpeed()
	out := make([]Reception, len(a.Hydrophones))
	for i, h := range a.Hydrophones {
		d := units.Distance(pos.Sub(h.Pos).Norm())
		if d < minStandoff {
			d = minStandoff
		}
		path := acoustics.Path{Medium: a.Medium, Distance: d, SurfaceDepth: a.SurfaceDepth}
		spl := src.Add(-path.TransmissionLoss(freq, refDist))
		snr := float64(spl.Sub(noiseFloor))
		rec := Reception{
			Hydrophone: i,
			Delay:      time.Duration(float64(d) / c * float64(time.Second)),
			SPL:        spl,
			SNRdB:      snr,
		}
		if snr >= minSNRdB {
			rec.Detected = true
			sigma := toaSigma(freq, snr)
			rec.Sigma = time.Duration(sigma * float64(time.Second))
			rng := rand.New(rand.NewSource(parallel.SeedFor(seed, i)))
			rec.TOA = rec.Delay + time.Duration(rng.NormFloat64()*sigma*float64(time.Second))
		}
		out[i] = rec
	}
	return out
}

// toaSigma is the one-sigma time-of-arrival measurement error in seconds
// for a tone at frequency f received at the given SNR (dB). The model is
// phase-noise-limited timing of a narrowband arrival, σ ≈ T/(2π·√(2·SNR))
// — the CRLB shape for a single-tone delay estimate — floored at 1 µs of
// sampling granularity. The keying-on transient resolves the tone's
// cycle ambiguity, so the estimate is absolute, not modulo one period.
func toaSigma(f units.Frequency, snrDB float64) float64 {
	if f <= 0 {
		return 1e-3
	}
	snrLin := math.Pow(10, snrDB/10)
	sigma := f.Period() / (2 * math.Pi * math.Sqrt(2*snrLin))
	if sigma < 1e-6 {
		sigma = 1e-6
	}
	return sigma
}

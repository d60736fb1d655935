package cluster

import (
	"fmt"
	"math"

	"deepnote/internal/acoustics"
	"deepnote/internal/core"
	"deepnote/internal/enclosure"
	"deepnote/internal/hdd"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/water"
)

// Vec3 is a position in meters. The water surface (when modeled) is the
// plane above everything; SurfaceDepth on the Layout sets how far below
// it the deployment sits.
type Vec3 struct{ X, Y, Z float64 }

// Sub returns v − o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Norm returns the Euclidean length in meters.
func (v Vec3) Norm() float64 { return math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z) }

// Between returns the distance between two points.
func Between(a, b Vec3) units.Distance { return units.Distance(a.Sub(b).Norm()) }

// ContainerSite is one submerged container (a failure domain) at a fixed
// position. Its Scenario selects the structural path (container material
// and mounting) for every drive inside it.
type ContainerSite struct {
	Name     string
	Pos      Vec3
	Scenario core.Scenario
}

// SpeakerSite is one attacker speaker (amplifier + underwater projector)
// at a fixed position, emitting its tone when keyed on.
type SpeakerSite struct {
	Name string
	Pos  Vec3
	Tone sig.Tone
}

// PointBlank is the minimum physical speaker-to-wall distance: the
// speaker face pressed against the container, the paper's 1 cm reference
// geometry. Speaker→container distances are clamped up to this.
const PointBlank = 1 * units.Centimeter

// Layout places containers and attacker speakers in a shared body of
// water. Every speaker→container pair gets a real acoustics.Path through
// the medium (spreading + absorption, optional Lloyd's-mirror surface
// bounce), replacing hop-count sketches with geometry.
type Layout struct {
	// Medium is the shared water body. nil means "unset" and defaults to
	// the tank medium the chain is calibrated in; an explicit pointer is
	// always honored, including a legitimately all-zero medium (0 °C
	// freshwater at the surface, pH unset). Pointer semantics distinguish
	// zero from unset, the same convention as TrafficSpec.ReadFraction.
	Medium *water.Medium
	// SurfaceDepth, when positive, enables the surface-reflection
	// interference term on every path (source and targets at this depth).
	SurfaceDepth units.Distance
	// Containers are the failure domains.
	Containers []ContainerSite
	// Speakers are the attacker's sources.
	Speakers []SpeakerSite
}

// GridLayout lays rows×cols containers on a regular grid with the given
// pitch, all Scenario 2 (plastic container, storage tower) in the tank
// medium. The standard starting point for datacenter experiments.
func GridLayout(rows, cols int, pitch units.Distance) Layout {
	l := Layout{Medium: Ptr(water.FreshwaterTank())}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			l.Containers = append(l.Containers, ContainerSite{
				Name:     fmt.Sprintf("ct-%d-%d", r, c),
				Pos:      Vec3{X: float64(c) * pitch.Meters(), Y: float64(r) * pitch.Meters()},
				Scenario: core.Scenario2,
			})
		}
	}
	return l
}

// LineLayout is a 1×n grid: containers in a line with the given spacing,
// the geometry the Fleet experiments model.
func LineLayout(n int, spacing units.Distance) Layout { return GridLayout(1, n, spacing) }

// WithSpeakersAt returns a copy of the layout with one speaker pressed
// against each of the named containers (co-located positions; the
// point-blank clamp supplies the paper's 1 cm standoff), all emitting the
// same tone. This is the "silence a failure domain" attacker.
//
// It panics on an out-of-range container index: a typo'd index used to be
// skipped silently, which made the intended speaker vanish and quietly
// weakened every experiment built on the layout. The builder idiom keeps
// the chainable signature, so a bad index is a programming error, not a
// runtime condition to thread through.
func (l Layout) WithSpeakersAt(tone sig.Tone, containers ...int) Layout {
	speakers := make([]SpeakerSite, 0, len(containers))
	for _, c := range containers {
		if c < 0 || c >= len(l.Containers) {
			panic(fmt.Sprintf("cluster: WithSpeakersAt container index %d outside [0, %d)", c, len(l.Containers)))
		}
		speakers = append(speakers, SpeakerSite{
			Name: "spk@" + l.Containers[c].Name,
			Pos:  l.Containers[c].Pos,
			Tone: tone,
		})
	}
	l.Speakers = speakers
	return l
}

// medium returns the effective water medium: the explicitly set one, or
// the tank default when Medium is nil. An explicit all-zero medium is
// honored, never silently replaced.
func (l Layout) medium() water.Medium {
	if l.Medium == nil {
		return water.FreshwaterTank()
	}
	return *l.Medium
}

// EffectiveMedium exposes the medium the layout's acoustic paths run
// through (the tank default when Medium is unset), so co-located sensing
// systems — hydrophone arrays in internal/sonar — model propagation in
// the same water the attack crosses.
func (l Layout) EffectiveMedium() water.Medium { return l.medium() }

// toneFreq is the frequency every speaker emits (Validate rejects a layout
// whose speakers differ), or 0 without speakers.
func (l Layout) toneFreq() units.Frequency {
	if len(l.Speakers) == 0 {
		return 0
	}
	return l.Speakers[0].Tone.Normalize().Freq
}

// Validate checks the layout. Every speaker must emit the same frequency:
// the attack is one sine tone at a time (§4), and the drive model has no
// multi-tone state to superpose distinct tones into.
func (l Layout) Validate() error {
	if len(l.Containers) == 0 {
		return fmt.Errorf("cluster: layout has no containers")
	}
	if err := l.medium().Validate(); err != nil {
		return err
	}
	for _, ct := range l.Containers {
		if _, err := ct.Scenario.Assembly(); err != nil {
			return fmt.Errorf("cluster: container %q: %w", ct.Name, err)
		}
	}
	for _, sp := range l.Speakers {
		if f := sp.Tone.Normalize().Freq; f != l.toneFreq() {
			return fmt.Errorf("cluster: speaker %q emits %v and speaker %q %v; every speaker of a layout must emit one frequency",
				sp.Name, f, l.Speakers[0].Name, l.toneFreq())
		}
	}
	return nil
}

// SpeakerDistance returns the physical path length from speaker s to
// container c, clamped up to PointBlank.
func (l Layout) SpeakerDistance(s, c int) units.Distance {
	d := Between(l.Speakers[s].Pos, l.Containers[c].Pos)
	if d < PointBlank {
		d = PointBlank
	}
	return d
}

// SpeakerAmp evaluates the full transfer chain from speaker s to a
// drive mounted (with assembly asm) in container c: the tone is carried
// through the speaker's water path, the container's transmission, and
// the mount coupling, then converted to off-track displacement by the
// drive model. It returns the off-track amplitude contribution
// (track-pitch fractions; 0 for a silent or out-of-band source). This is
// the per-(speaker, drive) transfer function the serving engine caches:
// it depends only on geometry and the speaker's tone, never on the
// attack schedule.
func (l Layout) SpeakerAmp(s, c int, asm enclosure.Assembly, model hdd.Model) float64 {
	return l.ampAt(l.SpeakerDistance(s, c), l.Speakers[s].Tone, asm, model)
}

// PredictedAmp evaluates the transfer chain from a hypothesized source —
// a defense localization fix — to a drive mounted (with assembly asm) in
// container c, mirroring SpeakerAmp but for a position the defender only
// estimated. slack is the localization uncertainty: the path length is
// conservatively shortened by it (the source may be that much closer than
// the estimate says) before the PointBlank clamp. Returns the predicted
// off-track amplitude.
func (l Layout) PredictedAmp(pos Vec3, slack units.Distance, tone sig.Tone, c int, asm enclosure.Assembly, model hdd.Model) float64 {
	d := Between(pos, l.Containers[c].Pos) - slack
	if d < PointBlank {
		d = PointBlank
	}
	return l.ampAt(d, tone, asm, model)
}

// ampAt is the off-track amplitude that tone, emitted by the paper's
// amplifier and projector d from a container, drives into a drive mounted
// there with asm.
func (l Layout) ampAt(d units.Distance, tone sig.Tone, asm enclosure.Assembly, model hdd.Model) float64 {
	tone = tone.Normalize()
	if tone.Amplitude == 0 || tone.Freq <= 0 {
		return 0
	}
	chain := acoustics.Chain{
		Amp:     acoustics.BG2120(),
		Speaker: acoustics.AQ339(),
		Path:    acoustics.Path{Medium: l.medium(), Distance: d, SurfaceDepth: l.SurfaceDepth},
	}
	pressure := chain.IncidentPressure(tone).Pascals()
	return model.OffTrack(tone.Freq, pressure*asm.StructuralGain(tone.Freq))
}

// superpose merges n per-speaker off-track contributions at one drive
// into one excitation state. Validate holds every speaker of a layout to
// one frequency, so the contributions add coherently (in phase — the
// attacker's worst case) into a single tone at freq. active selects which
// speakers are keyed on; nil means all. Both the direct chain walk
// (VibrationAt) and the cached-transfer-function path superpose through
// this one helper, so the two agree bit-exactly.
func superpose(freq units.Frequency, n int, amp func(s int) float64, active []bool) hdd.Vibration {
	var v hdd.Vibration
	for s := 0; s < n; s++ {
		if active != nil && (s >= len(active) || !active[s]) {
			continue
		}
		if a := amp(s); a > 0 {
			v.Freq, v.Amplitude = freq, v.Amplitude+a
		}
	}
	return v
}

// VibrationAt superposes every active speaker's contribution at a drive
// mounted in container c by walking each speaker's full acoustic chain.
// It is the reference (uncached) path; the serving engine precomputes
// SpeakerAmp per (speaker, drive) instead and superposes cached gains.
func (l Layout) VibrationAt(c int, asm enclosure.Assembly, model hdd.Model, active []bool) hdd.Vibration {
	amps := make([]float64, len(l.Speakers))
	for s := range l.Speakers {
		amps[s] = l.SpeakerAmp(s, c, asm, model)
	}
	return superpose(l.toneFreq(), len(l.Speakers), func(s int) float64 { return amps[s] }, active)
}

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

// Validate checks the layout.
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

// PathTo returns the water path from speaker s to container c.
func (l Layout) PathTo(s, c int) acoustics.Path {
	return acoustics.Path{
		Medium:       l.medium(),
		Distance:     l.SpeakerDistance(s, c),
		SurfaceDepth: l.SurfaceDepth,
	}
}

// ChainTo returns the full attack chain (paper amplifier and projector
// over the geometric path) from speaker s to container c.
func (l Layout) ChainTo(s, c int) acoustics.Chain {
	return acoustics.Chain{Amp: acoustics.BG2120(), Speaker: acoustics.AQ339(), Path: l.PathTo(s, c)}
}

// SpeakerAmp evaluates the full transfer chain from speaker s to a
// drive mounted (with assembly asm) in container c: the tone is carried
// through the speaker's water path, the container's transmission, and
// the mount coupling, then converted to off-track displacement by the
// drive model. It returns the speaker's tone frequency and the
// off-track amplitude contribution (track-pitch fractions; 0 for a
// silent or out-of-band source). This is the per-(speaker, drive)
// transfer function the serving engine caches: it depends only on
// geometry and the speaker's tone, never on the attack schedule.
func (l Layout) SpeakerAmp(s, c int, asm enclosure.Assembly, model hdd.Model) (units.Frequency, float64) {
	tone := l.Speakers[s].Tone.Normalize()
	if tone.Amplitude == 0 || tone.Freq <= 0 {
		return tone.Freq, 0
	}
	pressure := l.ChainTo(s, c).IncidentPressure(tone).Pascals()
	return tone.Freq, model.OffTrack(tone.Freq, pressure*asm.StructuralGain(tone.Freq))
}

// PredictedAmp evaluates the transfer chain from a hypothesized source —
// a defense localization fix — to a drive mounted (with assembly asm) in
// container c, mirroring SpeakerAmp but for a position the defender only
// estimated. slack is the localization uncertainty: the path length is
// conservatively shortened by it (the source may be that much closer than
// the estimate says) before the PointBlank clamp. Returns the tone
// frequency and the predicted off-track amplitude.
func (l Layout) PredictedAmp(pos Vec3, slack units.Distance, tone sig.Tone, c int, asm enclosure.Assembly, model hdd.Model) (units.Frequency, float64) {
	tone = tone.Normalize()
	if tone.Amplitude == 0 || tone.Freq <= 0 {
		return tone.Freq, 0
	}
	d := Between(pos, l.Containers[c].Pos) - slack
	if d < PointBlank {
		d = PointBlank
	}
	chain := acoustics.Chain{
		Amp:     acoustics.BG2120(),
		Speaker: acoustics.AQ339(),
		Path:    acoustics.Path{Medium: l.medium(), Distance: d, SurfaceDepth: l.SurfaceDepth},
	}
	pressure := chain.IncidentPressure(tone).Pascals()
	return tone.Freq, model.OffTrack(tone.Freq, pressure*asm.StructuralGain(tone.Freq))
}

// superposeComponents merges n per-speaker contributions — each a
// (frequency, off-track amplitude) pair — into one excitation state.
// Same-frequency sources add coherently (in phase — the attacker's
// worst case); distinct frequencies ride along as hdd partials, the
// composite vibration path. active selects which speakers are keyed on;
// nil means all. Both the direct chain walk (VibrationAt) and the
// cached-transfer-function path superpose through this one helper, so
// the two agree bit-exactly.
func superposeComponents(n int, freq func(s int) units.Frequency, amp func(s int) float64, active []bool) hdd.Vibration {
	type comp struct {
		f units.Frequency
		a float64
	}
	var comps []comp
	for s := 0; s < n; s++ {
		if active != nil && (s >= len(active) || !active[s]) {
			continue
		}
		a := amp(s)
		if a <= 0 {
			continue
		}
		f := freq(s)
		merged := false
		for i := range comps {
			if comps[i].f == f {
				comps[i].a += a
				merged = true
				break
			}
		}
		if !merged {
			comps = append(comps, comp{f: f, a: a})
		}
	}
	if len(comps) == 0 {
		return hdd.Quiet()
	}
	best := 0
	for i, cc := range comps {
		if cc.a > comps[best].a {
			best = i
		}
	}
	out := hdd.Vibration{Freq: comps[best].f, Amplitude: comps[best].a}
	for i, cc := range comps {
		if i != best {
			out.Partials = append(out.Partials, hdd.Partial{Freq: cc.f, Amplitude: cc.a})
		}
	}
	return out
}

// VibrationAt superposes every active speaker's contribution at a drive
// mounted in container c by walking each speaker's full acoustic chain.
// It is the reference (uncached) path; the serving engine precomputes
// SpeakerAmp per (speaker, drive) instead and superposes cached gains.
func (l Layout) VibrationAt(c int, asm enclosure.Assembly, model hdd.Model, active []bool) hdd.Vibration {
	freqs := make([]units.Frequency, len(l.Speakers))
	amps := make([]float64, len(l.Speakers))
	for s := range l.Speakers {
		freqs[s], amps[s] = l.SpeakerAmp(s, c, asm, model)
	}
	return superposeComponents(len(l.Speakers),
		func(s int) units.Frequency { return freqs[s] },
		func(s int) float64 { return amps[s] }, active)
}

// Package core assembles the paper's testbed: the attack signal chain
// (amplifier → underwater speaker → water path), the submerged enclosure
// (container, optional storage tower), and the victim drive, wired to a
// virtual clock and a block device. It is the layer that turns "transmit a
// 650 Hz tone at 140 dB SPL from 1 cm" into the drive-level vibration state
// every software substrate then experiences.
package core

import (
	"fmt"

	"deepnote/internal/acoustics"
	"deepnote/internal/blockdev"
	"deepnote/internal/enclosure"
	"deepnote/internal/hdd"
	"deepnote/internal/sig"
	"deepnote/internal/simclock"
	"deepnote/internal/units"
)

// Scenario selects one of the paper's three experimental configurations
// (Figure 1).
type Scenario int

// The paper's scenarios.
const (
	// Scenario1 places the drive directly on the bottom of the hard
	// plastic container.
	Scenario1 Scenario = iota + 1
	// Scenario2 mounts the drive in the second level of the Supermicro
	// storage tower inside the plastic container (the paper's "more
	// realistic" configuration used for Tables 1–3).
	Scenario2
	// Scenario3 mounts the drive in the tower inside the aluminum
	// container.
	Scenario3
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case Scenario1:
		return "Scenario 1 (plastic, drive on floor)"
	case Scenario2:
		return "Scenario 2 (plastic, storage tower)"
	case Scenario3:
		return "Scenario 3 (aluminum, storage tower)"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// ParseScenario returns the scenario numbered n, as a command's -scenario
// flag names it.
func ParseScenario(n int) (Scenario, error) {
	if s := Scenario(n); s >= Scenario1 && s <= Scenario3 {
		return s, nil
	}
	return 0, fmt.Errorf("scenario must be 1, 2, or 3 (got %d)", n)
}

// Assembly returns the structural configuration for the scenario.
func (s Scenario) Assembly() (enclosure.Assembly, error) {
	switch s {
	case Scenario1:
		return enclosure.Assembly{
			Container: enclosure.PlasticContainer(),
			Mount:     enclosure.FloorMount(),
		}, nil
	case Scenario2:
		return enclosure.Assembly{
			Container: enclosure.PlasticContainer(),
			Mount:     enclosure.TowerMount(enclosure.SupermicroCSEM35TQB(), 1),
		}, nil
	case Scenario3:
		return enclosure.Assembly{
			Container: enclosure.AluminumContainer(),
			Mount:     enclosure.TowerMount(enclosure.SupermicroCSEM35TQB(), 1),
		}, nil
	default:
		return enclosure.Assembly{}, fmt.Errorf("core: unknown scenario %d", int(s))
	}
}

// Testbed is the static physical configuration: signal chain, structure,
// and drive model.
type Testbed struct {
	// Scenario records which configuration this testbed models.
	Scenario Scenario
	// Chain is the attack signal chain, including the speaker distance.
	Chain acoustics.Chain
	// Assembly is the structural path from water to drive mounting.
	Assembly enclosure.Assembly
	// DriveModel is the victim drive.
	DriveModel hdd.Model
	// DriveStandoff is the drive's distance from the container wall
	// facing the speaker (the paper keeps the drive 3 cm behind it); it
	// is added to the water path.
	DriveStandoff units.Distance
}

// NewTestbed builds the paper's testbed for a scenario with the speaker at
// the given distance from the container wall.
func NewTestbed(s Scenario, speakerDistance units.Distance) (*Testbed, error) {
	asm, err := s.Assembly()
	if err != nil {
		return nil, err
	}
	tb := &Testbed{
		Scenario:      s,
		Chain:         acoustics.PaperChain(speakerDistance),
		Assembly:      asm,
		DriveModel:    hdd.Barracuda500(),
		DriveStandoff: 0,
	}
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	return tb, nil
}

// Validate checks the whole configuration.
func (tb *Testbed) Validate() error {
	if err := tb.Chain.Validate(); err != nil {
		return err
	}
	if err := tb.Assembly.Validate(); err != nil {
		return err
	}
	if tb.DriveStandoff < 0 {
		return fmt.Errorf("core: drive standoff must be non-negative")
	}
	return tb.DriveModel.Validate()
}

// WithDistance returns a copy of the testbed with the speaker moved to a
// new distance. Range tests sweep this.
func (tb *Testbed) WithDistance(d units.Distance) *Testbed {
	cp := *tb
	cp.Chain = cp.Chain.WithDistance(d)
	return &cp
}

// IncidentSPL returns the sound pressure level reaching the container wall
// for a tone.
func (tb *Testbed) IncidentSPL(tone sig.Tone) units.SPL {
	return tb.Chain.IncidentSPL(tone)
}

// VibrationFor converts an attack tone into the drive's vibration state:
// incident pressure at the wall, times the structural gain of container and
// mount, converted by the drive model into off-track displacement.
func (tb *Testbed) VibrationFor(tone sig.Tone) hdd.Vibration {
	tone = tone.Normalize()
	if tone.Amplitude == 0 || tone.Freq <= 0 {
		return hdd.Quiet()
	}
	pressure := tb.Chain.IncidentPressure(tone).Pascals()
	gain := tb.Assembly.StructuralGain(tone.Freq)
	amp := tb.DriveModel.OffTrack(tone.Freq, pressure*gain)
	return hdd.Vibration{Freq: tone.Freq, Amplitude: amp}
}

// OffTrackRatio returns the off-track amplitude for a full-scale tone at f
// divided by the drive's write-fault threshold — the testbed's unitless
// "how far past failure are we" diagnostic used for calibration and
// reporting. Values ≥ 1 mean writes fault.
func (tb *Testbed) OffTrackRatio(f units.Frequency) float64 {
	v := tb.VibrationFor(sig.NewTone(f))
	return v.Amplitude / tb.DriveModel.WriteFaultFrac
}

// CriticalIncidentSPL returns the incident SPL at the container wall at
// which the drive's write path starts faulting at frequency f: the
// threshold a standoff attacker must deliver, used by the §5 range
// analyses. ok is false when no finite pressure reaches the threshold
// (e.g. the servo fully rejects the frequency).
func (tb *Testbed) CriticalIncidentSPL(f units.Frequency) (units.SPL, bool) {
	gain := tb.Assembly.StructuralGain(f)
	resp := tb.DriveModel.OffTrack(f, 1) // displacement per Pa of incident pressure
	if gain <= 0 || resp <= 0 {
		return units.SPL{}, false
	}
	pa := tb.DriveModel.WriteFaultFrac / (resp * gain)
	return units.SPLFromPressure(units.Pressure(pa), units.RefPressureWater), true
}

// Rig is a live testbed: physical configuration plus clock, drive, and
// block device, ready to run workloads under attack.
type Rig struct {
	Testbed *Testbed
	Clock   *simclock.Virtual
	Drive   *hdd.Drive
	Disk    *blockdev.Disk
}

// NewRig instantiates a testbed with a fresh clock and drive.
func NewRig(s Scenario, speakerDistance units.Distance, seed int64) (*Rig, error) {
	tb, err := NewTestbed(s, speakerDistance)
	if err != nil {
		return nil, err
	}
	return NewRigFromTestbed(tb, seed)
}

// NewRigFromTestbed instantiates a prepared testbed configuration on a
// fresh clock.
func NewRigFromTestbed(tb *Testbed, seed int64) (*Rig, error) {
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(tb.DriveModel, clock, seed)
	if err != nil {
		return nil, err
	}
	return &Rig{
		Testbed: tb,
		Clock:   clock,
		Drive:   drive,
		Disk:    blockdev.NewDisk(drive),
	}, nil
}

// ApplyTone starts (or retunes) the attack: the drive immediately
// experiences the corresponding vibration.
func (r *Rig) ApplyTone(tone sig.Tone) {
	r.Drive.SetVibration(r.Testbed.VibrationFor(tone))
}

// Silence stops the attack.
func (r *Rig) Silence() { r.Drive.SetVibration(hdd.Quiet()) }

// MoveSpeaker changes the speaker distance mid-experiment, retaining any
// currently applied tone's frequency at the new level.
func (r *Rig) MoveSpeaker(d units.Distance, tone sig.Tone) {
	r.Testbed = r.Testbed.WithDistance(d)
	r.ApplyTone(tone)
}

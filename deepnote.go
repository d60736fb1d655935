// Package deepnote is a simulation framework reproducing "Deep Note: Can
// Acoustic Interference Damage the Availability of Hard Disk Storage in
// Underwater Data Centers?" (HotStorage '23).
//
// The package is the public facade over the full stack:
//
//   - underwater acoustics (speaker, amplifier, spreading and absorption),
//   - submerged enclosures (plastic/aluminum containers, storage tower),
//   - a mechanical victim HDD model (servo sensitivity, off-track faults),
//   - software substrates (FIO-workalike, ext4/JBD-like filesystem,
//     RocksDB-like LSM store, Ubuntu-like server model),
//   - attack procedures (frequency sweep, range test, prolonged attack),
//   - experiment runners regenerating the paper's Figure 2 and Tables 1–3,
//   - and defense evaluation.
//
// Quick start:
//
//	rig, _ := deepnote.NewRig(deepnote.Scenario2, 1*deepnote.Centimeter, 1)
//	rig.ApplyTone(deepnote.Tone(650 * deepnote.Hz))
//	res, _ := deepnote.RunFIO(rig, deepnote.SeqWrite, 2*time.Second)
//	fmt.Printf("under attack: %.1f MB/s\n", res.ThroughputMBps())
package deepnote

import (
	"time"

	"deepnote/internal/attack"
	"deepnote/internal/core"
	"deepnote/internal/defense"
	"deepnote/internal/fio"
	"deepnote/internal/jfs"
	"deepnote/internal/kvdb"
	"deepnote/internal/osmodel"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// Re-exported core types. Aliases keep the public API one import wide
// while the implementation stays modular.
type (
	// Scenario selects one of the paper's testbed configurations.
	Scenario = core.Scenario
	// Testbed is the physical configuration (chain, enclosure, drive).
	Testbed = core.Testbed
	// Rig is a live testbed with clock, drive, and block device.
	Rig = core.Rig

	// Frequency is hertz; Distance is meters (use the unit constants).
	Frequency = units.Frequency
	// Distance is a length in meters.
	Distance = units.Distance

	// Pattern is a FIO access pattern.
	Pattern = fio.Pattern
	// FIOResult is a workload measurement.
	FIOResult = fio.Result

	// SweepResult is a frequency-sweep outcome.
	SweepResult = attack.SweepResult
	// CrashTarget selects a software stack to crash.
	CrashTarget = attack.CrashTarget
	// CrashOutcome is a prolonged-attack result.
	CrashOutcome = attack.CrashOutcome

	// Defense is an evaluable countermeasure.
	Defense = defense.Defense
	// DefenseEvaluation reports a defense's residual vulnerability.
	DefenseEvaluation = defense.Evaluation
)

// Scenario, pattern, target, and unit constants.
const (
	Scenario1 = core.Scenario1
	Scenario2 = core.Scenario2
	Scenario3 = core.Scenario3

	SeqRead   = fio.SeqRead
	SeqWrite  = fio.SeqWrite
	RandRead  = fio.RandRead
	RandWrite = fio.RandWrite

	TargetExt4    = attack.TargetExt4
	TargetUbuntu  = attack.TargetUbuntu
	TargetRocksDB = attack.TargetRocksDB

	Hz         = units.Hz
	KHz        = units.KHz
	Meter      = units.Meter
	Centimeter = units.Centimeter
)

// NewTestbed builds the paper's testbed for a scenario with the speaker at
// the given distance from the container wall.
func NewTestbed(s Scenario, speakerDistance Distance) (*Testbed, error) {
	return core.NewTestbed(s, speakerDistance)
}

// NewRig instantiates a testbed with a fresh virtual clock and drive.
func NewRig(s Scenario, speakerDistance Distance, seed int64) (*Rig, error) {
	return core.NewRig(s, speakerDistance, seed)
}

// Tone returns a full-scale attack tone at frequency f.
func Tone(f Frequency) sig.Tone { return sig.NewTone(f) }

// RunFIO runs a paper-style FIO job (sequential/random, 4 KB) on the rig
// for the given virtual runtime.
func RunFIO(rig *Rig, p Pattern, runtime time.Duration) (FIOResult, error) {
	return fio.NewRunner(rig.Disk, rig.Clock).Run(fio.PaperJob(p, runtime))
}

// Sweep runs the paper's two-phase frequency sweep (coarse pass, then
// 50 Hz refinement) for the pattern against a scenario at 1 cm.
func Sweep(s Scenario, p Pattern) (SweepResult, error) {
	return attack.Sweeper{Scenario: s}.Run(p)
}

// CrashTest runs the prolonged attack (650 Hz, 140 dB, 1 cm, Scenario 2)
// against a software stack until it crashes.
func CrashTest(target CrashTarget) (CrashOutcome, error) {
	return attack.ProlongedAttack{}.Run(target)
}

// EvaluateDefenses runs the standard defense suite against a testbed.
func EvaluateDefenses(tb *Testbed) []DefenseEvaluation {
	return defense.EvaluateAll(tb)
}

// NewStack provisions a formatted filesystem, a key-value store, and a
// server model on a rig — the full victim software stack of §4.4. The
// caller owns ticking the server and using the store.
func NewStack(rig *Rig, seed int64) (*jfs.FS, *kvdb.DB, *osmodel.Server, error) {
	if err := jfs.Mkfs(rig.Disk, jfs.MkfsOptions{Blocks: 1 << 17}); err != nil {
		return nil, nil, nil, err
	}
	fs, err := jfs.Mount(rig.Disk, rig.Clock, jfs.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	db, err := kvdb.Open(fs, rig.Clock, kvdb.Options{Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := osmodel.Boot(fs, rig.Clock, osmodel.Config{Seed: seed})
	if err != nil {
		return nil, nil, nil, err
	}
	return fs, db, srv, nil
}

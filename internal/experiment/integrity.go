package experiment

import (
	"bytes"
	"fmt"

	"deepnote/internal/core"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// Integrity demonstrates the silent-corruption surface the paper's
// introduction attributes to acoustic interference ("availability and
// integrity"): during a *marginal* attack — too weak to block writes, so
// nothing looks wrong — successful writes squeeze neighboring tracks, and
// data written earlier quietly rots. Availability monitoring alone would
// never notice. The attack plays the paper's 650 Hz tone at a Scenario 2
// drive (rig seed 1) whose victim data set is integrityBlocks 4 KiB
// blocks.
type Integrity struct {
	// Distance puts the drive in the marginal zone (by default amplitude
	// just under the write gate at 650 Hz, Scenario 2).
	Distance units.Distance
	// CorruptionProb is the per-marginal-write squeeze probability; 0
	// disables the mechanism.
	CorruptionProb float64
}

// The integrity attack's fixed tone and victim data set size.
const (
	integrityFreq   = 650 * units.Hz
	integrityBlocks = 256
)

// DefaultIntegrity is the experiment `deepnote integrity` runs with no
// flags.
func DefaultIntegrity() Integrity {
	return Integrity{Distance: 18 * units.Centimeter, CorruptionProb: 0.05}
}

// IntegrityResult reports the damage.
type IntegrityResult struct {
	Spec Integrity
	// WritesAttempted and WritesFailed describe the attack-phase
	// workload; a marginal attack has few or no failures.
	WritesAttempted, WritesFailed int
	// CorruptedBlocks of TotalBlocks in the victim data set differ from
	// what was written.
	CorruptedBlocks, TotalBlocks int
}

// Run executes the experiment: write a known data set quietly, attack at
// the marginal distance while writing the neighboring track, silence, and
// audit the original data set.
func (s Integrity) Run() (IntegrityResult, error) {
	if err := valid.First("experiment: Integrity",
		valid.Positive("Distance", s.Distance),
		valid.In("CorruptionProb", s.CorruptionProb, 0, 1),
	); err != nil {
		return IntegrityResult{}, err
	}
	tb, err := core.NewTestbed(core.Scenario2, s.Distance)
	if err != nil {
		return IntegrityResult{}, err
	}
	tb.DriveModel.AdjacentCorruptionProb = s.CorruptionProb
	rig, err := core.NewRigFromTestbed(tb, 1)
	if err != nil {
		return IntegrityResult{}, err
	}

	const blockSize = 4096
	track := tb.DriveModel.TrackBytes
	victimBase := 4 * track

	pattern := func(i int) []byte {
		b := make([]byte, blockSize)
		for j := range b {
			b[j] = byte(i*31 + j)
		}
		return b
	}

	// Phase 1: quiet write of the victim data set.
	for i := 0; i < integrityBlocks; i++ {
		if _, err := rig.Disk.WriteAt(pattern(i), victimBase+int64(i*blockSize)); err != nil {
			return IntegrityResult{}, fmt.Errorf("experiment: seeding victim data: %w", err)
		}
	}

	// Phase 2: marginal attack while a workload writes the next track
	// over (physically adjacent to the victim's).
	res := IntegrityResult{Spec: s, TotalBlocks: integrityBlocks}
	rig.ApplyTone(sig.NewTone(integrityFreq))
	writerBase := victimBase + track
	for i := 0; i < integrityBlocks; i++ {
		res.WritesAttempted++
		if _, err := rig.Disk.WriteAt(pattern(i), writerBase+int64(i*blockSize)); err != nil {
			res.WritesFailed++
		}
	}
	rig.Silence()

	// Phase 3: audit the victim data set.
	buf := make([]byte, blockSize)
	for i := 0; i < integrityBlocks; i++ {
		if _, err := rig.Disk.ReadAt(buf, victimBase+int64(i*blockSize)); err != nil {
			res.CorruptedBlocks++
			continue
		}
		if !bytes.Equal(buf, pattern(i)) {
			res.CorruptedBlocks++
		}
	}
	return res, nil
}

// Report renders the result.
func (r IntegrityResult) Report() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Integrity attack: marginal tone at %v, %v", integrityFreq, r.Spec.Distance),
		"Metric", "Value")
	tb.AddRow("attack-phase writes", fmt.Sprintf("%d (%d failed)", r.WritesAttempted, r.WritesFailed))
	tb.AddRow("victim blocks audited", fmt.Sprintf("%d", r.TotalBlocks))
	tb.AddRow("victim blocks corrupted", fmt.Sprintf("%d (%.1f%%)",
		r.CorruptedBlocks, 100*float64(r.CorruptedBlocks)/float64(r.TotalBlocks)))
	return tb
}

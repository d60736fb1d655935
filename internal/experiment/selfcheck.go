// Differential self-check over the paper's §4.1 operating grid: every
// (frequency × drive level × op × block size × offset) cell is pushed
// through the full acoustic chain to a drive-level excitation, then the
// analytic oracle and the Monte-Carlo simulator are compared on it.

package experiment

import (
	"fmt"

	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/hdd"
	"deepnote/internal/oracle"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// SelfCheckOptions tunes the differential grid. The speaker stands off
// 1 cm, the contact-attack distance of §4.1. Start from
// DefaultSelfCheckOptions; every value is used as given.
type SelfCheckOptions struct {
	// Scenario selects the testbed configuration.
	Scenario core.Scenario
	// Freqs are the probe tones.
	Freqs []units.Frequency
	// Levels are the normalized drive levels per tone.
	Levels []float64
	// Patterns are the fio access patterns.
	Patterns []fio.Pattern
	// BlockSizes are the per-request sizes in bytes.
	BlockSizes []int64
	// OffsetFracs place the swept region as a fraction of drive capacity.
	OffsetFracs []float64
	// Differ is the harness the grid runs through; its Model is replaced
	// by the scenario testbed's drive. Its Metrics, when set, receives
	// oracle and victim-stack counters.
	oracle.Differ
}

// DefaultSelfCheckOptions is the grid `deepnote selfcheck` runs with no
// flags: the paper's "realistic" Scenario 2 tower mount used for
// Tables 1–3; tones spread over the vulnerable and quiet bands at levels
// spanning collapse, transition and quiet cells; sequential write and
// read at the paper's 4 KiB fio block size and at 64 KiB to exercise
// multi-chunk ops; outer and inner zones; and the oracle.DefaultDiffer
// harness settings.
func DefaultSelfCheckOptions() SelfCheckOptions {
	return SelfCheckOptions{
		Scenario: core.Scenario2,
		Freqs: []units.Frequency{
			200 * units.Hz, 450 * units.Hz, 650 * units.Hz, 800 * units.Hz,
			1000 * units.Hz, 1300 * units.Hz, 1700 * units.Hz,
			2200 * units.Hz, 3000 * units.Hz,
		},
		Levels:      []float64{1, 0.5, 0.25},
		Patterns:    []fio.Pattern{fio.SeqWrite, fio.SeqRead},
		BlockSizes:  []int64{4096, 65536},
		OffsetFracs: []float64{0, 0.9},
		Differ:      oracle.DefaultDiffer(),
	}
}

// SelfCheckGrid expands the options into drive-level cells by running each
// (frequency, level) tone through the scenario's acoustic chain. Exposed so
// the CLI can report grid size before running.
func SelfCheckGrid(opts SelfCheckOptions) (hdd.Model, []oracle.CellSpec, error) {
	tb, err := core.NewTestbed(opts.Scenario, 1*units.Centimeter)
	if err != nil {
		return hdd.Model{}, nil, err
	}
	var cells []oracle.CellSpec
	for _, f := range opts.Freqs {
		for _, level := range opts.Levels {
			tone := sig.Tone{Freq: f, Amplitude: level}.Normalize()
			vib := tb.VibrationFor(tone)
			spl := tb.IncidentSPL(tone)
			for _, pat := range opts.Patterns {
				op := hdd.OpRead
				if pat == fio.SeqWrite || pat == fio.RandWrite {
					op = hdd.OpWrite
				}
				for _, bs := range opts.BlockSizes {
					for _, frac := range opts.OffsetFracs {
						offset := int64(frac * float64(tb.DriveModel.CapacityBytes))
						offset -= offset % bs
						cells = append(cells, oracle.CellSpec{
							Label: fmt.Sprintf("%v %.2fFS (%s) %v %dKiB @%.0f%%",
								f, level, spl, op, bs/1024, frac*100),
							SPL:       spl,
							Vib:       vib,
							Op:        op,
							Offset:    offset,
							BlockSize: bs,
						})
					}
				}
			}
		}
	}
	return tb.DriveModel, cells, nil
}

// SelfCheck runs the differential harness over the §4.1 grid.
func SelfCheck(opts SelfCheckOptions) (oracle.Report, error) {
	model, cells, err := SelfCheckGrid(opts)
	if err != nil {
		return oracle.Report{}, err
	}
	d := opts.Differ
	d.Model = model
	rep, err := d.Run(cells)
	if err != nil {
		return oracle.Report{}, err
	}
	opts.Metrics.Add("experiment.selfcheck_cells", int64(len(rep.Cells)))
	return rep, nil
}

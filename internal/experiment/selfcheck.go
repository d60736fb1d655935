// Differential self-check over the paper's §4.1 operating grid: every
// (frequency × drive level × op × block size × offset) cell is pushed
// through the full acoustic chain to a drive-level excitation, then the
// analytic oracle and the Monte-Carlo simulator are compared on it.

package experiment

import (
	"fmt"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/hdd"
	"deepnote/internal/metrics"
	"deepnote/internal/oracle"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// SelfCheckOptions tunes the differential grid. The speaker stands off
// 1 cm, the contact-attack distance of §4.1.
type SelfCheckOptions struct {
	// Scenario selects the testbed configuration (default Scenario2, the
	// paper's "realistic" tower mount used for Tables 1–3).
	Scenario core.Scenario
	// Freqs are the probe tones (default: a spread over the paper's
	// vulnerable and quiet bands, 200 Hz – 3 kHz).
	Freqs []units.Frequency
	// Levels are the normalized drive levels per tone (default 1, 0.5,
	// 0.25 full scale — spanning collapse, transition, and quiet cells).
	Levels []float64
	// Patterns are the fio access patterns (default sequential write and
	// read).
	Patterns []fio.Pattern
	// BlockSizes are the per-request sizes in bytes (default 4 KiB, the
	// paper's fio block size, and 64 KiB to exercise multi-chunk ops).
	BlockSizes []int64
	// OffsetFracs place the swept region as a fraction of drive capacity
	// (default 0 and 0.9 — outer and inner zones).
	OffsetFracs []float64
	// JobRuntime, Repeats, Seed, Workers, Tolerance, Mutation pass
	// through to the oracle.Differ.
	JobRuntime time.Duration
	Repeats    int
	Seed       int64
	Workers    int
	Tolerance  float64
	Mutation   oracle.Mutation
	// Metrics, when set, receives oracle and victim-stack counters (nil =
	// uninstrumented).
	Metrics *metrics.Registry
}

func (o SelfCheckOptions) withDefaults() SelfCheckOptions {
	if o.Scenario == 0 {
		o.Scenario = core.Scenario2
	}
	if len(o.Freqs) == 0 {
		o.Freqs = []units.Frequency{
			200 * units.Hz, 450 * units.Hz, 650 * units.Hz, 800 * units.Hz,
			1000 * units.Hz, 1300 * units.Hz, 1700 * units.Hz,
			2200 * units.Hz, 3000 * units.Hz,
		}
	}
	if len(o.Levels) == 0 {
		o.Levels = []float64{1, 0.5, 0.25}
	}
	if len(o.Patterns) == 0 {
		o.Patterns = []fio.Pattern{fio.SeqWrite, fio.SeqRead}
	}
	if len(o.BlockSizes) == 0 {
		o.BlockSizes = []int64{4096, 65536}
	}
	if len(o.OffsetFracs) == 0 {
		o.OffsetFracs = []float64{0, 0.9}
	}
	return o
}

// SelfCheckGrid expands the options into drive-level cells by running each
// (frequency, level) tone through the scenario's acoustic chain. Exposed so
// the CLI can report grid size before running.
func SelfCheckGrid(opts SelfCheckOptions) (hdd.Model, []oracle.CellSpec, error) {
	opts = opts.withDefaults()
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
	opts = opts.withDefaults()
	model, cells, err := SelfCheckGrid(opts)
	if err != nil {
		return oracle.Report{}, err
	}
	d := oracle.Differ{
		Model:      model,
		JobRuntime: opts.JobRuntime,
		Repeats:    opts.Repeats,
		Seed:       opts.Seed,
		Workers:    opts.Workers,
		Tolerance:  opts.Tolerance,
		Mutation:   opts.Mutation,
		Metrics:    opts.Metrics,
	}
	rep, err := d.Run(cells)
	if err != nil {
		return oracle.Report{}, err
	}
	opts.Metrics.Add("experiment.selfcheck_cells", int64(len(rep.Cells)))
	return rep, nil
}

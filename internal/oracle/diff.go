// Differential self-check: oracle prediction versus Monte-Carlo simulation
// over a grid of operating points. Every cell runs the real victim stack —
// drive, block device, fio workload, virtual clock — and compares the
// measured sequential throughput against the closed-form prediction; a
// cell whose divergence exceeds the tolerance is a correctness failure in
// one of the two models.

package oracle

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/fio"
	"deepnote/internal/hdd"
	"deepnote/internal/metrics"
	"deepnote/internal/parallel"
	"deepnote/internal/report"
	"deepnote/internal/simclock"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// CellSpec is one operating point of a differential run, expressed at the
// drive level (excitation already converted to head off-track state).
type CellSpec struct {
	// Label names the cell in reports; empty labels are synthesized.
	Label string
	// SPL optionally records the incident sound pressure that produced
	// Vib (informational; the acoustic chain is deterministic and is
	// exercised by its own tests).
	SPL units.SPL
	// Vib is the single-tone excitation at the head.
	Vib hdd.Vibration
	// Op is the access kind.
	Op hdd.Op
	// Offset is the start of the swept region (zoned recording makes
	// inner offsets slower and more vulnerable).
	Offset int64
	// BlockSize is the per-request length in bytes.
	BlockSize int64
}

func (c CellSpec) label() string {
	if c.Label != "" {
		return c.Label
	}
	return fmt.Sprintf("%v a=%.3f %v %dB @%d", c.Vib.Freq, c.Vib.Amplitude, c.Op, c.BlockSize, c.Offset)
}

// Differ runs the differential self-check over a set of cells. Start from
// DefaultDiffer; every value is used as given.
type Differ struct {
	// Model is the victim drive, shared by predictor and simulator.
	Model hdd.Model
	// JobRuntime is the per-simulation measurement window in virtual
	// time.
	JobRuntime time.Duration
	// Repeats averages this many independently seeded simulations per
	// cell to tighten the Monte-Carlo estimate.
	Repeats int
	// Seed fixes the run; per-cell seeds derive from it.
	Seed int64
	// Workers bounds concurrent cells; ≤ 0 means one per CPU. Seeding is
	// per-cell, so results are identical at any worker count.
	Workers int
	// Tolerance is the maximum allowed divergence per cell.
	Tolerance float64
	// Mutation seeds a known historical bug into the predictor; the
	// mutation tests use it to prove the harness trips (MutNone = none).
	Mutation Mutation
	// Metrics, when set, receives per-cell layer counters plus the
	// harness's own outcome counters under "oracle." (nil =
	// uninstrumented).
	Metrics *metrics.Registry
}

// DefaultDiffer is the harness `deepnote selfcheck` runs with no flags,
// against the paper's victim drive.
func DefaultDiffer() Differ {
	return Differ{
		Model: hdd.Barracuda500(), JobRuntime: 2 * time.Second,
		Repeats: 2, Seed: 1, Tolerance: 0.12,
	}
}

const (
	// diffSpan is the region each fio job sweeps.
	diffSpan = 1 << 30
	// floorFrac scales the divergence denominator floor: divergence is
	// |pred − sim| / max(pred, sim, floorFrac·quiet), so collapsed cells
	// (both sides ≈ 0) compare on the throughput scale that matters
	// rather than amplifying noise in tiny ratios.
	floorFrac = 0.05
)

// Cell is one compared operating point of a Report.
type Cell struct {
	Label         string  `json:"label"`
	FreqHz        float64 `json:"freq_hz"`
	SPLdB         float64 `json:"spl_db,omitempty"`
	Amplitude     float64 `json:"amplitude_track_frac"`
	Op            string  `json:"op"`
	Offset        int64   `json:"offset"`
	BlockSize     int64   `json:"block_size"`
	PredictedMBps float64 `json:"predicted_mbps"`
	SimulatedMBps float64 `json:"simulated_mbps"`
	Divergence    float64 `json:"divergence"`
	Within        bool    `json:"within_tolerance"`
}

// Report is the outcome of a differential run.
type Report struct {
	Schema        string  `json:"schema"`
	Model         string  `json:"model"`
	Mutation      string  `json:"mutation"`
	Tolerance     float64 `json:"tolerance"`
	Cells         []Cell  `json:"cells"`
	MaxDivergence float64 `json:"max_divergence"`
	Failures      int     `json:"failures"`
}

// ReportSchema versions the report artifact.
const ReportSchema = "deepnote-selfcheck/v1"

// Passed reports whether every cell stayed within tolerance.
func (r Report) Passed() bool { return r.Failures == 0 }

// Table renders the per-cell divergence table.
func (r Report) Table() *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Differential self-check (%s, tolerance %.0f%%)", r.Model, r.Tolerance*100),
		"Cell", "Predicted MB/s", "Simulated MB/s", "Divergence", "OK")
	for _, c := range r.Cells {
		okMark := "ok"
		if !c.Within {
			okMark = "FAIL"
		}
		tb.AddRow(c.Label,
			fmt.Sprintf("%.2f", c.PredictedMBps),
			fmt.Sprintf("%.2f", c.SimulatedMBps),
			fmt.Sprintf("%.1f%%", c.Divergence*100),
			okMark)
	}
	return tb
}

// WriteReport writes the report as indented JSON.
func WriteReport(path string, r Report) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("oracle: marshal report: %w", err)
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// Run compares oracle and simulator on every cell and aggregates the
// divergences. It returns an error only for malformed specs or simulator
// failures; out-of-tolerance cells are reported, not errored, so callers
// decide how to fail.
func (d Differ) Run(cells []CellSpec) (Report, error) {
	if err := valid.First("oracle: Differ",
		valid.Positive("JobRuntime", d.JobRuntime),
		valid.AtLeast("Repeats", d.Repeats, 1),
		valid.AtLeast("Tolerance", d.Tolerance, 0),
	); err != nil {
		return Report{}, err
	}
	if len(cells) == 0 {
		return Report{}, errNoCells
	}
	if err := d.Model.Validate(); err != nil {
		return Report{}, err
	}
	rep := Report{
		Schema:    ReportSchema,
		Model:     d.Model.Name,
		Mutation:  d.Mutation.String(),
		Tolerance: d.Tolerance,
	}
	out, err := parallel.RunObserved(context.Background(), cells, d.Workers, d.Metrics,
		func(_ context.Context, i int, spec CellSpec) (Cell, error) {
			return d.runCell(i, spec)
		})
	if err != nil {
		return Report{}, err
	}
	for _, c := range out {
		rep.Cells = append(rep.Cells, c)
		if c.Divergence > rep.MaxDivergence {
			rep.MaxDivergence = c.Divergence
		}
		if !c.Within {
			rep.Failures++
		}
	}
	d.Metrics.Add("oracle.cells", int64(len(rep.Cells)))
	d.Metrics.Add("oracle.failures", int64(rep.Failures))
	d.Metrics.MaxGauge("oracle.max_divergence", rep.MaxDivergence)
	return rep, nil
}

// runCell evaluates one cell: one closed-form prediction against the mean
// of Repeats independently seeded simulations.
func (d Differ) runCell(index int, spec CellSpec) (Cell, error) {
	in := Input{Model: d.Model, Vib: spec.Vib, Op: spec.Op, Offset: spec.Offset, BlockSize: spec.BlockSize}
	pred, err := PredictMutant(in, d.Mutation)
	if err != nil {
		return Cell{}, fmt.Errorf("oracle: cell %q: %w", spec.label(), err)
	}
	quietIn := in
	quietIn.Vib = hdd.Quiet()
	quiet, err := Predict(quietIn)
	if err != nil {
		return Cell{}, fmt.Errorf("oracle: cell %q quiet baseline: %w", spec.label(), err)
	}

	sum := 0.0
	for r := 0; r < d.Repeats; r++ {
		mbps, err := d.simulate(spec, parallel.SeedFor(d.Seed, index*d.Repeats+r))
		if err != nil {
			return Cell{}, fmt.Errorf("oracle: cell %q: %w", spec.label(), err)
		}
		sum += mbps
	}
	sim := sum / float64(d.Repeats)

	scale := pred.ThroughputMBps
	if sim > scale {
		scale = sim
	}
	if floor := floorFrac * quiet.ThroughputMBps; floor > scale {
		scale = floor
	}
	div := 0.0
	if scale > 0 {
		div = absFloat(pred.ThroughputMBps-sim) / scale
	}
	return Cell{
		Label:         spec.label(),
		FreqHz:        float64(spec.Vib.Freq),
		SPLdB:         spec.SPL.DB,
		Amplitude:     spec.Vib.Amplitude,
		Op:            spec.Op.String(),
		Offset:        spec.Offset,
		BlockSize:     spec.BlockSize,
		PredictedMBps: pred.ThroughputMBps,
		SimulatedMBps: sim,
		Divergence:    div,
		Within:        div <= d.Tolerance,
	}, nil
}

// simulate runs one fio job against a fresh victim stack and returns the
// measured sequential throughput in MB/s.
func (d Differ) simulate(spec CellSpec, seed int64) (float64, error) {
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(d.Model, clock, seed)
	if err != nil {
		return 0, err
	}
	drive.SetVibration(spec.Vib)
	disk := blockdev.NewDisk(drive)

	span := int64(diffSpan)
	if spec.Offset+span > d.Model.CapacityBytes {
		span = d.Model.CapacityBytes - spec.Offset
	}
	pattern := fio.SeqRead
	if spec.Op == hdd.OpWrite {
		pattern = fio.SeqWrite
	}
	res, err := fio.NewRunner(disk, clock).WithMetrics(d.Metrics).Run(fio.Job{
		Name:      spec.label(),
		Pattern:   pattern,
		BlockSize: int(spec.BlockSize),
		Offset:    spec.Offset,
		Span:      span,
		Runtime:   d.JobRuntime,
		Seed:      seed,
	})
	if err != nil {
		return 0, err
	}
	if d.Metrics != nil {
		drive.PublishMetrics(d.Metrics)
		disk.PublishMetrics(d.Metrics)
	}
	return res.ThroughputMBps(), nil
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

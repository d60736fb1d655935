// Package experiment regenerates every table and figure in the paper's
// evaluation (§4): Figure 2's frequency sweeps, Table 1's FIO range test,
// Table 2's RocksDB range test, and Table 3's software crashes. Each runner
// returns typed results plus renderers that print paper-style output, and
// the paper's published values ship alongside for comparison.
package experiment

import (
	"context"
	"fmt"
	"time"

	"deepnote/internal/attack"
	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/jfs"
	"deepnote/internal/kvdb"
	"deepnote/internal/metrics"
	"deepnote/internal/parallel"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// --- Figure 2 -----------------------------------------------------------

// Figure 2's swept band, the band its panels plot.
const (
	figure2Start = 100 * units.Hz
	figure2End   = 8000 * units.Hz
)

// Figure2Options tunes the sweep resolution.
type Figure2Options struct {
	// Step is the frequency step across figure2Start–figure2End (default
	// 100 Hz).
	Step units.Frequency
	// JobRuntime is the per-point FIO window (default 500 ms).
	JobRuntime time.Duration
	// Seed fixes the run.
	Seed int64
	// Workers bounds how many (scenario, frequency) cells run
	// concurrently; ≤ 0 means one worker per CPU. Each cell builds its
	// own rig, so results are identical for any worker count.
	Workers int
	// Metrics, when set, receives per-cell layer counters (hdd, blockdev,
	// fio) plus grid counters under "experiment." (nil = uninstrumented).
	Metrics *metrics.Registry
}

func (o Figure2Options) withDefaults() Figure2Options {
	if o.Step == 0 {
		o.Step = 100 * units.Hz
	}
	if o.JobRuntime == 0 {
		o.JobRuntime = 500 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Figure2Series is one scenario's throughput-versus-frequency line.
type Figure2Series struct {
	Scenario core.Scenario
	Freqs    []units.Frequency
	MBps     []float64
}

// Figure2Result reproduces one panel of Figure 2 (a: write, b: read).
type Figure2Result struct {
	Pattern fio.Pattern
	Series  []Figure2Series
}

// Figure2 sweeps all three scenarios for the given pattern. The full
// (scenario × frequency) grid fans out over the Workers pool; frequencies
// are generated by index (figure2Start + i*Step) so the grid is exact
// regardless of step size.
func Figure2(pattern fio.Pattern, opts Figure2Options) (Figure2Result, error) {
	// Zero still selects the default step; anything else must let the
	// sweep loop terminate.
	if err := valid.First("experiment: Figure2Options", valid.AtLeast("Step", opts.Step, 0)); err != nil {
		return Figure2Result{}, err
	}
	opts = opts.withDefaults()
	res := Figure2Result{Pattern: pattern}

	var freqs []units.Frequency
	for i := 0; ; i++ {
		f := figure2Start + units.Frequency(i)*opts.Step
		if f > figure2End {
			break
		}
		freqs = append(freqs, f)
	}
	scenarios := []core.Scenario{core.Scenario1, core.Scenario2, core.Scenario3}

	type cell struct {
		scenario core.Scenario
		freq     units.Frequency
	}
	var cells []cell
	for _, s := range scenarios {
		for _, f := range freqs {
			cells = append(cells, cell{scenario: s, freq: f})
		}
	}
	mbps, err := parallel.RunObserved(context.Background(), cells, opts.Workers, opts.Metrics,
		func(_ context.Context, _ int, c cell) (float64, error) {
			rig, err := core.NewRig(c.scenario, 1*units.Centimeter, opts.Seed)
			if err != nil {
				return 0, err
			}
			rig.ApplyTone(sig.NewTone(c.freq))
			r, err := fio.NewRunner(rig.Disk, rig.Clock).WithMetrics(opts.Metrics).Run(fio.PaperJob(pattern, opts.JobRuntime))
			if err != nil {
				return 0, err
			}
			if opts.Metrics != nil {
				rig.Drive.PublishMetrics(opts.Metrics)
				rig.Disk.PublishMetrics(opts.Metrics)
			}
			return r.ThroughputMBps(), nil
		})
	if err != nil {
		return res, err
	}
	opts.Metrics.Add("experiment.figure2_cells", int64(len(cells)))
	for si, s := range scenarios {
		series := Figure2Series{Scenario: s}
		for fi, f := range freqs {
			series.Freqs = append(series.Freqs, f)
			series.MBps = append(series.MBps, mbps[si*len(freqs)+fi])
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Chart renders the result as the paper's plot.
func (r Figure2Result) Chart() *report.Chart {
	panel := "(a) Sequential Write"
	if r.Pattern == fio.SeqRead {
		panel = "(b) Sequential Read"
	}
	c := &report.Chart{
		Title:  "Figure 2" + panel + ": HDD throughput during attack vs frequency",
		XLabel: "Frequency (kHz)",
		YLabel: "Throughput (MB/s)",
	}
	for _, s := range r.Series {
		series := report.Series{Name: s.Scenario.String()}
		for i := range s.Freqs {
			series.X = append(series.X, s.Freqs[i].Kilohertz())
			series.Y = append(series.Y, s.MBps[i])
		}
		c.Series = append(c.Series, series)
	}
	return c
}

// VulnerableBand returns the contiguous band of ≥50% throughput loss for a
// scenario (relative to the series' maximum).
func (r Figure2Result) VulnerableBand(s core.Scenario) (sig.Band, bool) {
	for _, series := range r.Series {
		if series.Scenario != s {
			continue
		}
		peak := 0.0
		for _, v := range series.MBps {
			if v > peak {
				peak = v
			}
		}
		if peak == 0 {
			return sig.Band{}, false
		}
		var vulnerable []units.Frequency
		for i, v := range series.MBps {
			if v <= peak/2 {
				vulnerable = append(vulnerable, series.Freqs[i])
			}
		}
		bands := sig.CoalesceBands(vulnerable, 400*units.Hz)
		if len(bands) == 0 {
			return sig.Band{}, false
		}
		// Return the widest band.
		best := bands[0]
		for _, b := range bands[1:] {
			if b.Width() > best.Width() {
				best = b
			}
		}
		return best, true
	}
	return sig.Band{}, false
}

// --- Table 1 ------------------------------------------------------------

// Table1Result carries the measured range rows.
type Table1Result struct {
	Rows []attack.RangeRow
}

// Table1Observed runs the paper's §4.2 range test (650 Hz, Scenario 2),
// publishing per-layer counters into reg (nil reg = uninstrumented).
func Table1Observed(seed int64, reg *metrics.Registry) (Table1Result, error) {
	rows, err := attack.RangeTest{Seed: seed, Metrics: reg}.Run()
	if err != nil {
		return Table1Result{}, err
	}
	reg.Add("experiment.table1_rows", int64(len(rows)))
	return Table1Result{Rows: rows}, nil
}

// PaperTable1 is the paper's published Table 1 for comparison.
// Latency -1 encodes the paper's "-" (no response).
var PaperTable1 = []attack.RangeRow{
	{Distance: 0, ReadMBps: 18.0, WriteMBps: 22.7, ReadLatMs: 0.2, WriteLatMs: 0.2},
	{Distance: 1 * units.Centimeter, ReadMBps: 0, WriteMBps: 0, ReadLatMs: -1, WriteLatMs: -1, ReadNoResponse: true, WriteNoResponse: true},
	{Distance: 5 * units.Centimeter, ReadMBps: 0, WriteMBps: 0, ReadLatMs: -1, WriteLatMs: -1, ReadNoResponse: true, WriteNoResponse: true},
	{Distance: 10 * units.Centimeter, ReadMBps: 12.6, WriteMBps: 0.3, ReadLatMs: 0.3, WriteLatMs: -1},
	{Distance: 15 * units.Centimeter, ReadMBps: 17.6, WriteMBps: 2.9, ReadLatMs: 0.2, WriteLatMs: 4.0},
	{Distance: 20 * units.Centimeter, ReadMBps: 17.6, WriteMBps: 21.1, ReadLatMs: 0.2, WriteLatMs: 0.2},
	{Distance: 25 * units.Centimeter, ReadMBps: 18.0, WriteMBps: 22.0, ReadLatMs: 0.2, WriteLatMs: 0.2},
}

func distanceLabel(d units.Distance) string {
	if d == 0 {
		return "No Attack"
	}
	return fmt.Sprintf("%.0f cm", d.Centimeters())
}

// Report renders measured rows beside the paper's published values.
func (t Table1Result) Report() *report.Table {
	tb := report.NewTable(
		"Table 1: FIO throughput/latency vs distance (650 Hz, Scenario 2)",
		"Distance", "Read MB/s", "Write MB/s", "Read ms", "Write ms",
		"paper R", "paper W")
	for i, row := range t.Rows {
		var pr, pw string
		if i < len(PaperTable1) {
			pr = report.FormatMBps(PaperTable1[i].ReadMBps)
			pw = report.FormatMBps(PaperTable1[i].WriteMBps)
		}
		tb.AddRow(
			distanceLabel(row.Distance),
			report.FormatMBps(row.ReadMBps),
			report.FormatMBps(row.WriteMBps),
			report.FormatLatencyMs(row.ReadLatMs),
			report.FormatLatencyMs(row.WriteLatMs),
			pr, pw,
		)
	}
	return tb
}

// --- Table 2 ------------------------------------------------------------

// Table2Row is one distance of the RocksDB range test.
type Table2Row struct {
	Distance  units.Distance
	MBps      float64
	OpsPerSec float64
	Crashed   bool
}

// Table2Result carries the measured rows.
type Table2Result struct {
	Rows []Table2Row
}

// PaperTable2 is the paper's published Table 2 (ops/s in raw ops).
var PaperTable2 = []Table2Row{
	{Distance: 0, MBps: 8.7, OpsPerSec: 1.1e5},
	{Distance: 1 * units.Centimeter, MBps: 0, OpsPerSec: 0},
	{Distance: 5 * units.Centimeter, MBps: 0, OpsPerSec: 0},
	{Distance: 10 * units.Centimeter, MBps: 0, OpsPerSec: 0},
	{Distance: 15 * units.Centimeter, MBps: 3.7, OpsPerSec: 0.9e5},
	{Distance: 20 * units.Centimeter, MBps: 8.6, OpsPerSec: 1.1e5},
	{Distance: 25 * units.Centimeter, MBps: 8.6, OpsPerSec: 1.1e5},
}

// table2Fill is how many keys Table 2 pre-populates before each run.
const table2Fill = 5000

// Table2Options tunes the RocksDB range test.
type Table2Options struct {
	// Runtime is the readwhilewriting window per distance (default 5 s).
	Runtime time.Duration
	Seed    int64
	// Metrics, when set, receives the per-distance stack counters (hdd,
	// blockdev, jfs, kvdb) plus "experiment." grid counters.
	Metrics *metrics.Registry
}

func (o Table2Options) withDefaults() Table2Options {
	if o.Runtime == 0 {
		o.Runtime = 5 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Table2 runs db_bench readwhilewriting at each paper distance.
func Table2(opts Table2Options) (Table2Result, error) {
	opts = opts.withDefaults()
	distances := []units.Distance{
		0,
		1 * units.Centimeter, 5 * units.Centimeter, 10 * units.Centimeter,
		15 * units.Centimeter, 20 * units.Centimeter, 25 * units.Centimeter,
	}
	var res Table2Result
	for _, d := range distances {
		rig, err := core.NewRig(core.Scenario2, 1*units.Centimeter, opts.Seed)
		if err != nil {
			return res, err
		}
		if err := jfs.Mkfs(rig.Disk, jfs.MkfsOptions{Blocks: 1 << 17}); err != nil {
			return res, err
		}
		fs, err := jfs.Mount(rig.Disk, rig.Clock, jfs.Config{})
		if err != nil {
			return res, err
		}
		db, err := kvdb.Open(fs, rig.Clock, kvdb.Options{Seed: opts.Seed})
		if err != nil {
			return res, err
		}
		bench := kvdb.NewBench(db, rig.Clock)
		if _, err := bench.Run(kvdb.BenchSpec{Workload: kvdb.WorkloadFillRandom, Num: table2Fill, ValueSize: 100, Seed: 1}); err != nil {
			return res, err
		}
		if d > 0 {
			rig.MoveSpeaker(d, sig.NewTone(650*units.Hz))
		}
		r, err := bench.Run(kvdb.BenchSpec{Workload: kvdb.WorkloadReadWhileWriting, Runtime: opts.Runtime, ValueSize: 100, Seed: 1})
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, Table2Row{
			Distance:  d,
			MBps:      r.ThroughputMBps(),
			OpsPerSec: r.OpsPerSec(),
			Crashed:   r.Crashed,
		})
		if opts.Metrics != nil {
			rig.Drive.PublishMetrics(opts.Metrics)
			rig.Disk.PublishMetrics(opts.Metrics)
			fs.PublishMetrics(opts.Metrics)
			db.PublishMetrics(opts.Metrics)
			if r.Crashed {
				opts.Metrics.Add("experiment.table2_crashed_rows", 1)
			}
		}
	}
	opts.Metrics.Add("experiment.table2_rows", int64(len(res.Rows)))
	return res, nil
}

// Report renders measured rows beside the paper's values.
func (t Table2Result) Report() *report.Table {
	tb := report.NewTable(
		"Table 2: RocksDB readwhilewriting vs distance (650 Hz, Scenario 2)",
		"Distance", "MB/s", "ops/s (x1e5)", "paper MB/s", "paper ops/s")
	for i, row := range t.Rows {
		var pm, po string
		if i < len(PaperTable2) {
			pm = report.FormatMBps(PaperTable2[i].MBps)
			po = fmt.Sprintf("%.1f", PaperTable2[i].OpsPerSec/1e5)
		}
		tb.AddRow(
			distanceLabel(row.Distance),
			report.FormatMBps(row.MBps),
			fmt.Sprintf("%.1f", row.OpsPerSec/1e5),
			pm, po,
		)
	}
	return tb
}

// --- Table 3 ------------------------------------------------------------

// Table3Result carries the crash outcomes.
type Table3Result struct {
	Outcomes []attack.CrashOutcome
}

// PaperTable3 is the paper's published time-to-crash (seconds).
var PaperTable3 = map[attack.CrashTarget]float64{
	attack.TargetExt4:    80.0,
	attack.TargetUbuntu:  81.0,
	attack.TargetRocksDB: 81.3,
}

// Table3Observed runs the paper's §4.4 prolonged attack against all three
// stacks, publishing per-layer counters into reg (nil reg =
// uninstrumented).
func Table3Observed(seed int64, reg *metrics.Registry) (Table3Result, error) {
	outcomes, err := attack.ProlongedAttack{Seed: seed, Metrics: reg}.RunAll()
	if err != nil {
		return Table3Result{}, err
	}
	reg.Add("experiment.table3_targets", int64(len(outcomes)))
	return Table3Result{Outcomes: outcomes}, nil
}

// MeanTimeToCrash averages the crash times (the paper reports 80.8 s).
func (t Table3Result) MeanTimeToCrash() time.Duration {
	var sum time.Duration
	n := 0
	for _, o := range t.Outcomes {
		if o.Crashed {
			sum += o.TimeToCrash
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

func describeTarget(t attack.CrashTarget) string {
	switch t {
	case attack.TargetExt4:
		return "Journaling filesystem"
	case attack.TargetUbuntu:
		return "Ubuntu server 16.04"
	case attack.TargetRocksDB:
		return "Key-value database"
	default:
		return string(t)
	}
}

// Report renders the crash table beside the paper's values.
func (t Table3Result) Report() *report.Table {
	tb := report.NewTable(
		"Table 3: Crashes in real-world applications (650 Hz, 1 cm, Scenario 2)",
		"Application", "Description", "Time to Crash", "paper", "Error signature")
	for _, o := range t.Outcomes {
		crash := "did not crash"
		if o.Crashed {
			crash = fmt.Sprintf("%.1f seconds", o.TimeToCrash.Seconds())
		}
		sig := o.ErrorOutput
		if len(sig) > 60 {
			sig = sig[:60] + "..."
		}
		tb.AddRow(
			string(o.Target),
			describeTarget(o.Target),
			crash,
			fmt.Sprintf("%.1f seconds", PaperTable3[o.Target]),
			sig,
		)
	}
	return tb
}

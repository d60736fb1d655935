// Package attack implements the attacker's procedures from the paper's §3:
// the frequency sweep that locates a victim's vulnerable band, the range
// test that measures how far the attack reaches, and the prolonged attack
// that crashes software. Each procedure drives a full testbed rig — real
// workloads against the simulated drive — exactly as the paper drives FIO
// and db_bench against the physical one.
package attack

import (
	"context"
	"fmt"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/metrics"
	"deepnote/internal/parallel"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// SweepPoint is one measured frequency during a sweep.
type SweepPoint struct {
	Freq units.Frequency
	// ThroughputMBps is the victim's measured throughput at this tone.
	ThroughputMBps float64
	// Baseline is the no-attack throughput for the same workload.
	Baseline float64
}

// Degradation returns the fractional throughput loss at this point
// (0 = unaffected, 1 = total loss).
func (p SweepPoint) Degradation() float64 {
	if p.Baseline <= 0 {
		return 0
	}
	d := 1 - p.ThroughputMBps/p.Baseline
	if d < 0 {
		d = 0
	}
	return d
}

// SweepResult is the outcome of a frequency sweep.
type SweepResult struct {
	Scenario core.Scenario
	Pattern  fio.Pattern
	Points   []SweepPoint
	// Vulnerable are the frequencies whose degradation exceeded the
	// sweep's threshold.
	Vulnerable []units.Frequency
	// Bands coalesces Vulnerable into contiguous intervals.
	Bands []sig.Band
}

// The sweeps' fixed testbed: the speaker at the paper's 1 cm and one rig
// seed, so runs are reproducible.
const (
	sweepDistance = 1 * units.Centimeter
	sweepSeed     = 1
	// vulnerableDegradation marks a swept frequency vulnerable.
	vulnerableDegradation = 0.5
)

// Sweeper runs frequency sweeps against a scenario, with the speaker at
// sweepDistance.
type Sweeper struct {
	// Scenario fixes the testbed enclosure.
	Scenario core.Scenario
	// Plan is the sweep schedule (defaults to the paper's sweep).
	Plan sig.SweepPlan
	// JobRuntime is the per-frequency measurement window (default 1 s
	// of virtual time).
	JobRuntime time.Duration
	// Workers bounds how many sweep points are measured concurrently;
	// ≤ 0 means one worker per CPU. Every point runs on its own rig with
	// the same seed as the serial path, so results are identical for any
	// worker count.
	Workers int
	// Metrics, when set, receives per-layer counters from every rig the
	// sweep builds (hdd, blockdev, fio) plus the sweep's own outcome
	// counters. Aggregation is commutative, so the snapshot is identical
	// at any worker count; a nil registry leaves the run uninstrumented.
	Metrics *metrics.Registry
}

func (s Sweeper) withDefaults() Sweeper {
	if s.Plan.CoarseStep == 0 {
		s.Plan = sig.PaperSweep()
	}
	if s.JobRuntime == 0 {
		s.JobRuntime = time.Second
	}
	return s
}

// measure runs one fio job at the given tone on a fresh rig and returns
// MB/s. A fresh rig per point keeps points independent, like remounting
// the drive between paper trials.
func (s Sweeper) measure(pattern fio.Pattern, tone sig.Tone) (float64, error) {
	rig, err := core.NewRig(s.Scenario, sweepDistance, sweepSeed)
	if err != nil {
		return 0, err
	}
	if tone.Amplitude > 0 {
		rig.ApplyTone(tone)
	}
	res, err := fio.NewRunner(rig.Disk, rig.Clock).WithMetrics(s.Metrics).Run(fio.PaperJob(pattern, s.JobRuntime))
	if err != nil {
		return 0, err
	}
	if s.Metrics != nil {
		rig.Drive.PublishMetrics(s.Metrics)
		rig.Disk.PublishMetrics(s.Metrics)
		s.Metrics.Add("attack.sweep_measurements", 1)
	}
	return res.ThroughputMBps(), nil
}

// Run performs the two-phase sweep of §4.1: a coarse pass over the plan,
// then 50 Hz refinement around every vulnerable coarse frequency. Both
// passes fan their points out over the Workers pool; each point gets a
// fresh rig, so results match a serial run point for point.
func (s Sweeper) Run(pattern fio.Pattern) (SweepResult, error) {
	s = s.withDefaults()
	if err := s.Plan.Validate(); err != nil {
		return SweepResult{}, err
	}
	baseline, err := s.measure(pattern, sig.Tone{})
	if err != nil {
		return SweepResult{}, err
	}
	if baseline <= 0 {
		return SweepResult{}, fmt.Errorf("attack: baseline throughput is zero")
	}

	s.Metrics.MaxGauge("attack.baseline_mbps", baseline)

	res := SweepResult{Scenario: s.Scenario, Pattern: pattern}
	measurePass := func(freqs []units.Frequency) ([]SweepPoint, error) {
		return parallel.RunObserved(context.Background(), freqs, s.Workers, s.Metrics,
			func(_ context.Context, _ int, f units.Frequency) (SweepPoint, error) {
				mbps, err := s.measure(pattern, sig.NewTone(f))
				if err != nil {
					return SweepPoint{}, err
				}
				return SweepPoint{Freq: f, ThroughputMBps: mbps, Baseline: baseline}, nil
			})
	}

	coarse := s.Plan.CoarseFrequencies()
	coarsePoints, err := measurePass(coarse)
	if err != nil {
		return SweepResult{}, err
	}
	var coarseVulnerable []units.Frequency
	for _, p := range coarsePoints {
		res.Points = append(res.Points, p)
		if p.Degradation() >= vulnerableDegradation {
			coarseVulnerable = append(coarseVulnerable, p.Freq)
			res.Vulnerable = append(res.Vulnerable, p.Freq)
		}
	}

	finePoints, err := measurePass(s.Plan.RefineAroundAll(coarseVulnerable, coarse))
	if err != nil {
		return SweepResult{}, err
	}
	for _, p := range finePoints {
		res.Points = append(res.Points, p)
		if p.Degradation() >= vulnerableDegradation {
			res.Vulnerable = append(res.Vulnerable, p.Freq)
		}
	}
	res.Bands = sig.CoalesceBands(res.Vulnerable, s.Plan.CoarseStep+s.Plan.FineStep)
	s.Metrics.Add("attack.sweeps", 1)
	s.Metrics.Add("attack.sweep_points", int64(len(res.Points)))
	s.Metrics.Add("attack.vulnerable_points", int64(len(res.Vulnerable)))
	s.Metrics.Add("attack.bands", int64(len(res.Bands)))
	return res, nil
}

// RangeRow is one distance measurement of the paper's Table 1.
type RangeRow struct {
	// Distance is the speaker-to-container distance; zero means no
	// attack (the baseline row).
	Distance units.Distance
	// ReadMBps and WriteMBps are FIO sequential throughputs.
	ReadMBps, WriteMBps float64
	// ReadLatMs and WriteLatMs are mean latencies in ms; negative means
	// no response (the paper prints "-").
	ReadLatMs, WriteLatMs float64
	// ReadNoResponse / WriteNoResponse flag zero-completion runs.
	ReadNoResponse, WriteNoResponse bool
}

// RangeTest measures attack effect over distance at a fixed frequency
// (§4.2 uses 650 Hz in Scenario 2): the no-attack baseline, then the
// paper's six distances from 1 to 25 cm.
type RangeTest struct {
	Scenario   core.Scenario
	Freq       units.Frequency
	JobRuntime time.Duration
	Seed       int64
	// Metrics, when set, receives the per-rig layer counters and the
	// range test's own outcome counters (nil = uninstrumented).
	Metrics *metrics.Registry
}

func (r RangeTest) withDefaults() RangeTest {
	if r.Freq == 0 {
		r.Freq = 650 * units.Hz
	}
	if r.JobRuntime == 0 {
		r.JobRuntime = 2 * time.Second
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.Scenario == 0 {
		r.Scenario = core.Scenario2
	}
	return r
}

// Run produces the baseline row followed by one row per distance.
func (r RangeTest) Run() ([]RangeRow, error) {
	r = r.withDefaults()
	distances := []units.Distance{
		1 * units.Centimeter, 5 * units.Centimeter, 10 * units.Centimeter,
		15 * units.Centimeter, 20 * units.Centimeter, 25 * units.Centimeter,
	}
	rows := make([]RangeRow, 0, len(distances)+1)

	measure := func(d units.Distance) (RangeRow, error) {
		row := RangeRow{Distance: d}
		for _, pat := range []fio.Pattern{fio.SeqRead, fio.SeqWrite} {
			rig, err := core.NewRig(r.Scenario, 1*units.Centimeter, r.Seed)
			if err != nil {
				return row, err
			}
			if d > 0 {
				rig.MoveSpeaker(d, sig.NewTone(r.Freq))
			}
			res, err := fio.NewRunner(rig.Disk, rig.Clock).WithMetrics(r.Metrics).Run(fio.PaperJob(pat, r.JobRuntime))
			if err != nil {
				return row, err
			}
			if r.Metrics != nil {
				rig.Drive.PublishMetrics(r.Metrics)
				rig.Disk.PublishMetrics(r.Metrics)
			}
			lat := res.Latencies.Mean.Seconds() * 1000
			if res.NoResponse {
				lat = -1
			}
			if pat == fio.SeqRead {
				row.ReadMBps, row.ReadLatMs, row.ReadNoResponse = res.ThroughputMBps(), lat, res.NoResponse
			} else {
				row.WriteMBps, row.WriteLatMs, row.WriteNoResponse = res.ThroughputMBps(), lat, res.NoResponse
			}
		}
		return row, nil
	}

	baseline, err := measure(0)
	if err != nil {
		return nil, err
	}
	rows = append(rows, baseline)
	for _, d := range distances {
		row, err := measure(d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		if row.ReadNoResponse || row.WriteNoResponse {
			r.Metrics.Add("attack.range_no_response_rows", 1)
		}
	}
	r.Metrics.Add("attack.range_tests", 1)
	r.Metrics.Add("attack.range_rows", int64(len(rows)))
	return rows, nil
}

// MaxEffectiveDistance returns the largest tested distance at which write
// throughput lost at least lossFrac of the baseline (the paper finds 25 cm
// with a measurable loss, "the maximum effective distance").
func MaxEffectiveDistance(rows []RangeRow, lossFrac float64) (units.Distance, bool) {
	if len(rows) == 0 || rows[0].Distance != 0 {
		return 0, false
	}
	base := rows[0].WriteMBps
	var best units.Distance
	found := false
	for _, row := range rows[1:] {
		if base > 0 && 1-row.WriteMBps/base >= lossFrac && row.Distance > best {
			best = row.Distance
			found = true
		}
	}
	return best, found
}

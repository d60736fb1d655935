package experiment

import (
	"fmt"
	"time"

	"deepnote/internal/cluster"
	"deepnote/internal/parallel"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/sonar"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// SonarSpec is the closed-loop defense campaign: the PR 5 availability
// cliff (one attacker speaker past the parity budget) re-run with a
// hydrophone array listening, each key-on localized by multilateration,
// and the resulting fixes steering the erasure-coded store — measured
// against the identical run with the defense off. A localization range
// sweep rides along, probing fix quality from point-blank out past the
// facility perimeter.
type SonarSpec struct {
	Facility
	Site
	// Speakers is how many point-blank speakers the attacker stages, at
	// most Containers (0 = ParityShards+1 — exactly one failure domain
	// past the cliff, the scenario the defense must rescue).
	Speakers int
	// Margin and React tune the defense policy, passed straight through
	// to cluster.DefenseSpec: the at-risk threshold as a fraction of the
	// servo-lock amplitude, and the controller lag from fix to policy
	// switch.
	Margin float64
	React  time.Duration
	// Workers bounds the drive fan-out inside each serving run (≤ 0 =
	// one per CPU); results are identical for any worker count.
	Workers int
}

// DefaultSonarSpec is the campaign `deepnote sonar` runs with no flags.
func DefaultSonarSpec() SonarSpec {
	return SonarSpec{
		Facility: Facility{
			DataShards: 4, ParityShards: 2, Objects: 24, ObjectSize: 16 << 10,
			Spacing: 2 * units.Meter, Freq: 650 * units.Hz,
			Requests: 600, Rate: 500, ReadFraction: 0.9, Seed: 1,
		},
		Site: Site{
			Containers: 6, DrivesPerContainer: 1, Hydrophones: 6, Standoff: 3 * units.Meter,
			AttackStartFrac: 0.25, StaggerFrac: 0.2,
		},
		Margin: 0.5, React: 50 * time.Millisecond,
	}
}

func (s SonarSpec) validate() error {
	errs := append(s.Facility.checks(), s.Site.checks(s.DataShards+s.ParityShards)...)
	return valid.First("experiment: SonarSpec", append(errs,
		valid.In("Speakers", s.Speakers, 0, s.Containers),
		valid.AtLeast("Margin", s.Margin, 0),
		valid.AtLeast("React", s.React, 0))...)
}

// RangeProbe is one cell of the localization range sweep: a source at a
// known distance from the container centroid, received and multilaterated
// through the same array the defense uses.
type RangeProbe struct {
	// Range is the true source distance from the container centroid.
	Range units.Distance
	// Heard is how many hydrophones detected the tone.
	Heard int
	// OK reports whether multilateration produced a fix.
	OK bool
	// Planar reports the degraded horizontal-only fix.
	Planar bool
	// MissM is the 3-D distance between the fix and the true position in
	// meters (negative when no fix was produced).
	MissM float64
	// ErrRadius is the fix's own one-sigma uncertainty claim.
	ErrRadius units.Distance
}

// SonarResult is the campaign outcome: the detection timeline, the range
// sweep, and the defense-off/defense-on serving results under identical
// traffic and attack seeds.
type SonarResult struct {
	// Window is the nominal client request window.
	Window time.Duration
	// Detections is the surveillance timeline, one entry per key-on.
	Detections []sonar.Detection
	// MissM[i] is detection i's localization miss in meters against the
	// true speaker position (negative when the fix failed).
	MissM []float64
	// Probes is the localization range sweep.
	Probes []RangeProbe
	// Off and On are the serving results with the defense disabled and
	// enabled; everything else about the two runs is identical.
	Off, On cluster.ServeResult
	// EvacsPlanned and EvacsSkipped summarize the compiled defense plan.
	EvacsPlanned, EvacsSkipped int
}

// SonarRun executes the campaign. Both serving runs and every reception
// draw their randomness from seeds derived with parallel.SeedFor, so the
// whole result is byte-identical at any Workers value.
func SonarRun(spec SonarSpec) (SonarResult, error) {
	if err := spec.validate(); err != nil {
		return SonarResult{}, err
	}
	if spec.Speakers == 0 {
		spec.Speakers = spec.ParityShards + 1
	}
	tone := sig.NewTone(spec.Freq)
	window := spec.window()

	lay := cluster.LineLayout(spec.Containers, spec.Spacing).WithSpeakersAt(tone, parallel.Indices(spec.Speakers)...)
	arr := sonar.FacilityArray(lay, spec.Hydrophones, spec.Standoff)
	if err := arr.Validate(); err != nil {
		return SonarResult{}, err
	}

	steps := staggeredSchedule(spec.Speakers, window, spec.AttackStartFrac, spec.StaggerFrac)
	dets := sonar.DetectSchedule(lay, arr, steps, parallel.SeedFor(spec.Seed, 1))

	res := SonarResult{Window: window, Detections: dets}
	for _, d := range dets {
		miss := -1.0
		if d.OK {
			miss = d.Est.Pos.Sub(lay.Speakers[d.Speaker].Pos).Norm()
		}
		res.MissM = append(res.MissM, miss)
	}

	serve := func(def *cluster.DefenseSpec) (*cluster.Cluster, cluster.ServeResult, error) {
		return serveCell(spec.Facility, spec.DrivesPerContainer, lay, steps, def,
			parallel.SeedFor(spec.Seed, 2), parallel.SeedFor(spec.Seed, 3), spec.Workers)
	}
	var err error
	var onCluster *cluster.Cluster
	if _, res.Off, err = serve(nil); err != nil {
		return res, err
	}
	if onCluster, res.On, err = serve(&cluster.DefenseSpec{
		Fixes: sourceFixes(lay, dets), Margin: cluster.Ptr(spec.Margin), React: cluster.Ptr(spec.React),
	}); err != nil {
		return res, err
	}
	res.EvacsPlanned, res.EvacsSkipped = onCluster.DefenseEvacsPlanned()

	center := sonar.ContainerCentroid(lay)
	// Localization probes at these distances from the container centroid.
	ranges := []units.Distance{
		1 * units.Meter, 2 * units.Meter, 5 * units.Meter, 10 * units.Meter,
		15 * units.Meter, 20 * units.Meter, 30 * units.Meter,
	}
	for i, r := range ranges {
		truth := cluster.Vec3{X: center.X + float64(r), Y: center.Y, Z: center.Z}
		recs := arr.Receive(truth, tone, parallel.SeedFor(spec.Seed, 1000+i))
		probe := RangeProbe{Range: r, MissM: -1}
		for _, rec := range recs {
			if rec.Detected {
				probe.Heard++
			}
		}
		if est, lerr := arr.Locate(recs); lerr == nil {
			probe.OK = true
			probe.Planar = est.Planar
			probe.MissM = est.Pos.Sub(truth).Norm()
			probe.ErrRadius = est.ErrRadius
		}
		res.Probes = append(res.Probes, probe)
	}

	// Only the defense-on cluster publishes, so the sonar/defense layers
	// land in the snapshot exactly once.
	onCluster.PublishMetrics(spec.Metrics)
	sonar.PublishMetrics(spec.Metrics, dets)
	spec.Metrics.Add("experiment.sonar_runs", 1)
	return res, nil
}

// SonarDetectionReport renders the surveillance timeline.
func SonarDetectionReport(res SonarResult) *report.Table {
	tb := report.NewTable(
		"Detection timeline: attacker key-ons through the hydrophone array",
		"Speaker", "Key-on s", "Heard", "Fix", "Latency ms", "Err radius m", "Miss m")
	for i, d := range res.Detections {
		fix, miss := "none", "-"
		if d.OK {
			fix = "3-D"
			if d.Est.Planar {
				fix = "planar"
			}
			miss = fmt.Sprintf("%.2f", res.MissM[i])
		}
		tb.AddRow(
			fmt.Sprintf("%d", d.Speaker),
			fmt.Sprintf("%.2f", d.KeyOn.Seconds()),
			fmt.Sprintf("%d", d.Heard),
			fix,
			fmt.Sprintf("%.1f", float64(d.Latency)/1e6),
			fmt.Sprintf("%.2f", float64(d.Est.ErrRadius)),
			miss)
	}
	return tb
}

// SonarRangeReport renders the localization error vs range sweep.
func SonarRangeReport(res SonarResult) *report.Table {
	tb := report.NewTable(
		"Localization error vs source range (probes from the container centroid)",
		"Range m", "Heard", "Fix", "Miss m", "Err radius m")
	for _, p := range res.Probes {
		fix, miss := "none", "-"
		if p.OK {
			fix = "3-D"
			if p.Planar {
				fix = "planar"
			}
			miss = fmt.Sprintf("%.2f", p.MissM)
		}
		tb.AddRow(
			fmt.Sprintf("%.0f", float64(p.Range)),
			fmt.Sprintf("%d", p.Heard),
			fix,
			miss,
			fmt.Sprintf("%.2f", float64(p.ErrRadius)))
	}
	return tb
}

// SonarDefenseReport renders the defense-off/defense-on comparison.
func SonarDefenseReport(res SonarResult) *report.Table {
	tb := report.NewTable(
		"Serving under staged escalation, defense off vs on (identical seeds)",
		"Defense", "GET avail", "PUT avail", "GET fails", "Degraded", "Steered",
		"Replica reads", "Evacs", "P99 ms")
	for _, row := range []struct {
		name string
		sr   cluster.ServeResult
	}{{"off", res.Off}, {"on", res.On}} {
		tb.AddRow(row.name,
			fmt.Sprintf("%.1f%%", row.sr.GetAvailability()*100),
			fmt.Sprintf("%.1f%%", row.sr.PutAvailability()*100),
			fmt.Sprintf("%d", row.sr.GetFailures),
			fmt.Sprintf("%d", row.sr.DegradedReads),
			fmt.Sprintf("%d", row.sr.SteeredGets),
			fmt.Sprintf("%d", row.sr.ReplicaReads),
			fmt.Sprintf("%d", row.sr.EvacWrites),
			fmt.Sprintf("%.2f", float64(row.sr.P99)/1e6))
	}
	return tb
}

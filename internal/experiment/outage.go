package experiment

import (
	"fmt"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/metrics"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/trace"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// ControlledOutage realizes the paper's §3 first attacker objective: a
// controlled throughput loss of a victim drive for a specific amount of
// time, to induce application delays — then full recovery. The result is
// the throughput timeline a monitoring system would record, in one-second
// buckets. The rig is Scenario 2 with seed 1 and the speaker at 1 cm, and
// the tone's window sits between outageBefore and outageAfter of quiet
// writing.
type ControlledOutage struct {
	Freq units.Frequency
	// During is how long the tone is keyed.
	During time.Duration
	// Metrics, when set, is bound to the rig's virtual clock (snapshots
	// stamp virtual seconds) and receives the drive/disk counters plus
	// phase-mean gauges (nil = uninstrumented).
	Metrics *metrics.Registry
}

// DefaultControlledOutage is the outage `deepnote outage` runs with no
// flags.
func DefaultControlledOutage() ControlledOutage {
	return ControlledOutage{Freq: 650 * units.Hz, During: 10 * time.Second}
}

// outageBefore and outageAfter are the quiet phases around the tone.
const outageBefore, outageAfter = 5 * time.Second, 5 * time.Second

// OutageResult is the measured timeline.
type OutageResult struct {
	Spec   ControlledOutage
	Points []trace.Point
	// BeforeMBps, DuringMBps, AfterMBps are phase means.
	BeforeMBps, DuringMBps, AfterMBps float64
}

// Run executes the outage: a continuously writing workload, with the tone
// keyed on for exactly the During window.
func (c ControlledOutage) Run() (OutageResult, error) {
	if err := valid.First("experiment: ControlledOutage",
		valid.Positive("Freq", c.Freq),
		valid.Positive("During", c.During),
	); err != nil {
		return OutageResult{}, err
	}
	rig, err := core.NewRig(core.Scenario2, 1*units.Centimeter, 1)
	if err != nil {
		return OutageResult{}, err
	}
	// Bind the registry to this rig's virtual clock up front, so the final
	// snapshot stamps the experiment's elapsed virtual time.
	c.Metrics.SetClock(rig.Clock)
	meter := trace.NewMeter(rig.Clock, time.Second)
	buf := make([]byte, 4096)
	var off int64
	phaseEnd := func(d time.Duration) time.Time { return rig.Clock.Now().Add(d) }

	writeUntil := func(deadline time.Time) {
		for rig.Clock.Now().Before(deadline) {
			if _, err := rig.Disk.WriteAt(buf, off%(1<<24)); err == nil {
				meter.Add(4096)
			}
			off += 4096
		}
	}

	writeUntil(phaseEnd(outageBefore))
	rig.ApplyTone(sig.NewTone(c.Freq))
	writeUntil(phaseEnd(c.During))
	rig.Silence()
	writeUntil(phaseEnd(outageAfter))

	res := OutageResult{Spec: c, Points: meter.Buckets()}
	res.BeforeMBps = meter.MeanMBps(0, outageBefore)
	res.DuringMBps = meter.MeanMBps(outageBefore, outageBefore+c.During)
	res.AfterMBps = meter.MeanMBps(outageBefore+c.During, outageBefore+c.During+outageAfter)
	if c.Metrics != nil {
		rig.Drive.PublishMetrics(c.Metrics)
		rig.Disk.PublishMetrics(c.Metrics)
		c.Metrics.Add("experiment.outages", 1)
		c.Metrics.MaxGauge("experiment.outage_before_mbps", res.BeforeMBps)
		c.Metrics.MaxGauge("experiment.outage_during_mbps", res.DuringMBps)
		c.Metrics.MaxGauge("experiment.outage_after_mbps", res.AfterMBps)
	}
	return res, nil
}

// Chart renders the timeline.
func (r OutageResult) Chart() *report.Chart {
	s := report.Series{Name: "write MB/s"}
	for _, p := range r.Points {
		s.X = append(s.X, p.T.Seconds())
		s.Y = append(s.Y, p.V)
	}
	return &report.Chart{
		Title: fmt.Sprintf("Controlled outage: %v keyed for %.0fs (attack window %.0f-%.0fs)",
			r.Spec.Freq, r.Spec.During.Seconds(),
			outageBefore.Seconds(), (outageBefore + r.Spec.During).Seconds()),
		XLabel: "time (s)",
		YLabel: "MB/s",
		Series: []report.Series{s},
	}
}

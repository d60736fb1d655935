// Package campaign orchestrates multi-phase attacks against a monitored
// victim — the cat-and-mouse the paper's §3 objectives imply. Objective 1
// (controlled delay induction) becomes most dangerous when it stays under
// the operator's detection threshold: a duty-cycled attacker keys short
// tone bursts separated by quiet gaps, trading devastation for stealth.
package campaign

import (
	"fmt"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/detect"
	"deepnote/internal/metrics"
	"deepnote/internal/sig"
	"deepnote/internal/trace"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// DutyCycle describes the attack's on/off keying. A zero Off means
// continuous attack.
type DutyCycle struct {
	On, Off time.Duration
}

// Fraction returns the on-air fraction.
func (d DutyCycle) Fraction() float64 {
	total := d.On + d.Off
	if total <= 0 {
		return 0
	}
	return float64(d.On) / float64(total)
}

// Stealth is a duty-cycled attack against a victim running a monitored
// write workload, with the paper's 650 Hz tone from 1 cm in Scenario 2
// and the victim's detector at its defaults. Start from DefaultStealth;
// every value is used as given.
type Stealth struct {
	Duty DutyCycle
	// Duration is the total campaign length.
	Duration time.Duration
	Seed     int64
	// Metrics receives campaign and per-layer counters when non-nil.
	// Publishing happens after the run completes, so instrumentation
	// never perturbs the simulation.
	Metrics *metrics.Registry
}

// DefaultStealth is the campaign `deepnote stealth` runs with no flags.
func DefaultStealth() Stealth {
	return Stealth{
		Duty:     DutyCycle{On: 500 * time.Millisecond, Off: 10 * time.Second},
		Duration: 60 * time.Second,
		Seed:     1,
	}
}

// Result summarizes the campaign from both sides.
type Result struct {
	Spec Stealth
	// BaselineMBps and CampaignMBps are victim write throughput before
	// and during the campaign.
	BaselineMBps, CampaignMBps float64
	// LossFraction is the victim's relative throughput loss.
	LossFraction float64
	// Alarms is how many times the victim's detector fired.
	Alarms int
	// MaxSuspicion is the detector's worst window score during the
	// campaign.
	MaxSuspicion float64
	// Timeline is the victim throughput per second.
	Timeline []trace.Point
}

// Run executes the campaign: the victim writes continuously through a
// detection monitor; the attacker keys the tone per the duty cycle.
func (s Stealth) Run() (Result, error) {
	if err := valid.First("campaign: Stealth",
		valid.Positive("Duty.On", s.Duty.On),
		valid.AtLeast("Duty.Off", s.Duty.Off, 0),
		valid.Positive("Duration", s.Duration),
	); err != nil {
		return Result{}, err
	}
	rig, err := core.NewRig(core.Scenario2, 1*units.Centimeter, s.Seed)
	if err != nil {
		return Result{}, err
	}
	mon, err := detect.NewMonitor(rig.Disk, rig.Clock, detect.Config{})
	if err != nil {
		return Result{}, err
	}
	meter := trace.NewMeter(rig.Clock, time.Second)
	origin := rig.Clock.Now()
	buf := make([]byte, 4096)
	var off int64

	writeOnce := func() {
		if _, err := mon.WriteAt(buf, off%(1<<24)); err == nil {
			meter.Add(4096)
		}
		off += 4096
	}
	writeFor := func(d time.Duration) {
		deadline := rig.Clock.Now().Add(d)
		for rig.Clock.Now().Before(deadline) {
			writeOnce()
		}
	}

	// Baseline phase: train the detector, measure healthy throughput.
	baselineWindow := 5 * time.Second
	writeFor(baselineWindow)
	spec := s
	spec.Metrics = nil // the registry is plumbing, not a campaign parameter
	res := Result{Spec: spec, BaselineMBps: meter.MeanMBps(0, baselineWindow)}
	if res.BaselineMBps <= 0 {
		return res, fmt.Errorf("campaign: baseline produced no throughput")
	}

	// Campaign phase.
	start := rig.Clock.Now()
	maxSuspicion := 0.0
	bursts := 0
	tone := sig.NewTone(650 * units.Hz)
	for rig.Clock.Now().Sub(start) < s.Duration {
		rig.ApplyTone(tone)
		bursts++
		onDeadline := rig.Clock.Now().Add(s.Duty.On)
		for rig.Clock.Now().Before(onDeadline) {
			writeOnce()
			if sus := mon.Suspicion(); sus > maxSuspicion {
				maxSuspicion = sus
			}
		}
		rig.Silence()
		if s.Duty.Off > 0 {
			offDeadline := rig.Clock.Now().Add(s.Duty.Off)
			for rig.Clock.Now().Before(offDeadline) {
				writeOnce()
				if sus := mon.Suspicion(); sus > maxSuspicion {
					maxSuspicion = sus
				}
			}
		}
	}
	rig.Silence()

	campaignEnd := rig.Clock.Now().Sub(origin)
	res.CampaignMBps = meter.MeanMBps(baselineWindow, campaignEnd)
	res.LossFraction = 1 - res.CampaignMBps/res.BaselineMBps
	if res.LossFraction < 0 {
		res.LossFraction = 0
	}
	res.Alarms = mon.Detector().Alarms
	res.MaxSuspicion = maxSuspicion
	res.Timeline = meter.Buckets()
	s.publishMetrics(rig, res, bursts)
	return res, nil
}

// publishMetrics folds the finished campaign into the registry: the
// attacker-side accounting plus the victim rig's drive and disk layers.
// Everything published is a pure function of the (already deterministic)
// result, so snapshots merge identically at any worker count.
func (s Stealth) publishMetrics(rig *core.Rig, res Result, bursts int) {
	reg := s.Metrics
	reg.Add("campaign.runs", 1)
	reg.Add("campaign.bursts", int64(bursts))
	reg.Add("campaign.alarms", int64(res.Alarms))
	reg.MaxGauge("campaign.max_suspicion", res.MaxSuspicion)
	reg.MaxGauge("campaign.max_loss_fraction", res.LossFraction)
	rig.Drive.PublishMetrics(reg)
	rig.Disk.PublishMetrics(reg)
}

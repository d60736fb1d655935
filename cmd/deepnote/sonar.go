package main

import (
	"fmt"
	"io"

	"deepnote/internal/experiment"
)

// cmdSonar runs the closed-loop defense campaign: a hydrophone ring
// listens to a staged attacker escalation, multilaterates each key-on,
// and the fixes steer the erasure-coded store — reported against the
// identical run with the defense off, plus a localization range sweep.
// Stdout is byte-identical for any -workers value and with metrics on
// or off.
func cmdSonar(fs *flagSet) func(io.Writer) error {
	spec := experiment.DefaultSonarSpec()
	fs.IntVar(&spec.Containers, "containers", spec.Containers, "container count (failure domains)")
	fs.IntVar(&spec.DrivesPerContainer, "drives", spec.DrivesPerContainer, "drives per container")
	fs.IntVar(&spec.DataShards, "data", spec.DataShards, "data shards per stripe (k)")
	fs.IntVar(&spec.ParityShards, "parity", spec.ParityShards, "parity shards per stripe (m)")
	fs.IntVar(&spec.Objects, "objects", spec.Objects, "objects in the keyspace")
	fs.IntVar(&spec.ObjectSize, "objsize", spec.ObjectSize, "object size in bytes")
	fs.Float64Var((*float64)(&spec.Spacing), "spacing", float64(spec.Spacing), "container spacing in meters")
	fs.Float64Var((*float64)(&spec.Freq), "freq", float64(spec.Freq), "attack tone in Hz")
	fs.IntVar(&spec.Speakers, "speakers", spec.Speakers, "attacker speakers (0 = parity+1, one past the cliff)")
	fs.IntVar(&spec.Hydrophones, "hydrophones", spec.Hydrophones, "hydrophone ring elements")
	fs.Float64Var((*float64)(&spec.Standoff), "standoff", float64(spec.Standoff), "hydrophone ring standoff beyond the farthest container, meters")
	fs.IntVar(&spec.Requests, "requests", spec.Requests, "client requests per serving run")
	fs.Float64Var(&spec.Rate, "rate", spec.Rate, "client arrival rate (requests/second)")
	fs.Float64Var(&spec.ReadFraction, "readfrac", spec.ReadFraction, "GET fraction of the workload (0 = write-only)")
	fs.Float64Var(&spec.AttackStartFrac, "attack-start", spec.AttackStartFrac, "first key-on as a fraction of the request window")
	fs.Float64Var(&spec.StaggerFrac, "attack-stagger", spec.StaggerFrac, "gap between key-ons as a fraction of the window")
	fs.Float64Var(&spec.Margin, "margin", spec.Margin, "at-risk threshold as a fraction of servo-lock amplitude")
	fs.durationVar(&spec.React, "react", "controller lag from fix to policy switch, `seconds`")
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "base seed")
	fs.workersVar(&spec.Workers, "workers", "drive fan-out inside each serving run (never changes results; 0 = one per CPU)")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		spec.Metrics = o.registry()
		res, err := experiment.SonarRun(spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sonar: %d hydrophones at %.0f m standoff over %d containers, %d-of-%d stripes\n",
			spec.Hydrophones, float64(spec.Standoff), spec.Containers, spec.DataShards, spec.DataShards+spec.ParityShards)
		fmt.Fprintf(stdout, "attack: staged escalation, %.0f Hz key-ons every %.2f of a %.2f s window\n",
			float64(spec.Freq), spec.StaggerFrac, res.Window.Seconds())
		fmt.Fprint(stdout, experiment.SonarDetectionReport(res).String())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, experiment.SonarRangeReport(res).String())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, experiment.SonarDefenseReport(res).String())
		fmt.Fprintf(stdout, "defense plan: %d re-placement writes, %d shards with no safe target\n",
			res.EvacsPlanned, res.EvacsSkipped)
		fmt.Fprintf(stdout, "GET availability: %.1f%% undefended vs %.1f%% with the closed loop\n",
			res.Off.GetAvailability()*100, res.On.GetAvailability()*100)
		return o.finish(spec.Seed, spec.Workers)
	}
}

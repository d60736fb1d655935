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
	fs.facilityVars(&spec.Facility)
	fs.siteVars(&spec.Site)
	fs.IntVar(&spec.Speakers, "speakers", spec.Speakers, "attacker speakers (0 = parity+1, one past the cliff)")
	fs.Float64Var(&spec.Margin, "margin", spec.Margin, "at-risk threshold as a fraction of servo-lock amplitude")
	fs.durationVar(&spec.React, "react", "controller lag from fix to policy switch, `seconds`")
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

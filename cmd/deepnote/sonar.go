package main

import (
	"flag"
	"fmt"
	"time"

	"deepnote/internal/cluster"
	"deepnote/internal/experiment"
	"deepnote/internal/units"
)

// cmdSonar runs the closed-loop defense campaign: a hydrophone ring
// listens to a staged attacker escalation, multilaterates each key-on,
// and the fixes steer the erasure-coded store — reported against the
// identical run with the defense off, plus a localization range sweep.
// Stdout is byte-identical for any -workers value and with metrics on
// or off.
func cmdSonar(args []string) error {
	fs := flag.NewFlagSet("sonar", flag.ExitOnError)
	containers := fs.Int("containers", 6, "container count (failure domains)")
	drives := fs.Int("drives", 1, "drives per container")
	data := fs.Int("data", 4, "data shards per stripe (k)")
	parity := fs.Int("parity", 2, "parity shards per stripe (m)")
	objects := fs.Int("objects", 24, "objects in the keyspace")
	objSize := fs.Int("objsize", 16<<10, "object size in bytes")
	spacing := fs.Float64("spacing", 2, "container spacing in meters")
	freq := fs.Float64("freq", 650, "attack tone in Hz")
	speakers := fs.Int("speakers", 0, "attacker speakers (0 = parity+1, one past the cliff)")
	hydrophones := fs.Int("hydrophones", 6, "hydrophone ring elements")
	standoff := fs.Float64("standoff", 3, "hydrophone ring standoff beyond the farthest container, meters")
	requests := fs.Int("requests", 600, "client requests per serving run")
	rate := fs.Float64("rate", 500, "client arrival rate (requests/second)")
	readFrac := fs.Float64("readfrac", 0.9, "GET fraction of the workload (0 = write-only)")
	attackStart := fs.Float64("attack-start", 0.25, "first key-on as a fraction of the request window")
	attackStagger := fs.Float64("attack-stagger", 0.2, "gap between key-ons as a fraction of the window")
	margin := fs.Float64("margin", 0.5, "at-risk threshold as a fraction of servo-lock amplitude")
	react := fs.Float64("react", 0.05, "controller lag from fix to policy switch, seconds")
	seed := fs.Int64("seed", 1, "base seed")
	workers := fs.Int("workers", 0, "drive fan-out inside each serving run (never changes results; 0 = one per CPU)")
	o := addObsFlags(fs)
	fs.Parse(args)
	if err := checkCount("-hydrophones", *hydrophones); err != nil {
		return err
	}

	res, err := experiment.SonarRun(experiment.SonarSpec{
		Containers:         *containers,
		DrivesPerContainer: *drives,
		DataShards:         *data,
		ParityShards:       *parity,
		Objects:            *objects,
		ObjectSize:         *objSize,
		Spacing:            units.Distance(*spacing) * units.Meter,
		Freq:               units.Frequency(*freq),
		Speakers:           *speakers,
		Hydrophones:        *hydrophones,
		Standoff:           cluster.Ptr(units.Distance(*standoff) * units.Meter),
		Requests:           *requests,
		Rate:               *rate,
		ReadFraction:       cluster.Ptr(*readFrac),
		AttackStartFrac:    *attackStart,
		StaggerFrac:        cluster.Ptr(*attackStagger),
		Margin:             cluster.Ptr(*margin),
		React:              cluster.Ptr(time.Duration(*react * float64(time.Second))),
		Seed:               *seed,
		Workers:            *workers,
		Metrics:            o.registry(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("sonar: %d hydrophones at %.0f m standoff over %d containers, %d-of-%d stripes\n",
		*hydrophones, *standoff, *containers, *data, *data+*parity)
	fmt.Printf("attack: staged escalation, %.0f Hz key-ons every %.2f of a %.2f s window\n",
		*freq, *attackStagger, res.Window.Seconds())
	fmt.Print(experiment.SonarDetectionReport(res).String())
	fmt.Println()
	fmt.Print(experiment.SonarRangeReport(res).String())
	fmt.Println()
	fmt.Print(experiment.SonarDefenseReport(res).String())
	fmt.Printf("defense plan: %d re-placement writes, %d shards with no safe target\n",
		res.EvacsPlanned, res.EvacsSkipped)
	fmt.Printf("GET availability: %.1f%% undefended vs %.1f%% with the closed loop\n",
		res.Off.GetAvailability()*100, res.On.GetAvailability()*100)
	return o.finish("sonar", args, *seed, *workers)
}

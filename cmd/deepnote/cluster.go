package main

import (
	"fmt"
	"io"

	"deepnote/internal/experiment"
)

// cmdCluster runs the facility-scale campaign: an erasure-coded
// underwater datacenter serving open-loop client traffic while an
// attacker ladder silences failure domains one point-blank speaker at a
// time. Stdout is byte-identical for any -workers value and with
// metrics on or off.
func cmdCluster(fs *flagSet) func(io.Writer) error {
	spec := experiment.DefaultClusterSpec()
	fs.facilityVars(&spec.Facility)
	fs.siteVars(&spec.Site)
	fs.IntVar(&spec.MaxSpeakers, "speakers", spec.MaxSpeakers, "top of the speaker ladder (0 = one per container)")
	cell := fs.Int("cell", -1, "run only this ladder cell (speaker count; -1 = full ladder)")
	fs.Float64Var(&spec.AttackStopFrac, "attack-stop", spec.AttackStopFrac, "attack-off point as a fraction of the window (>= 1: never off)")
	fs.BoolVar(&spec.Defense, "defense", spec.Defense, "close the loop: hydrophone fixes steer the store in every cell")
	fs.workersVar(&spec.Workers, "workers", "parallel workers (0 = one per CPU)")
	fs.workersVar(&spec.CellWorkers, "cell-workers", "drive fan-out inside each cell (never changes results)")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		spec.Metrics = o.registry()
		if *cell >= 0 {
			spec.Cells = []int{*cell}
		}
		rows, err := experiment.ClusterSweep(spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "cluster: %d containers x %d drives, %d-of-%d stripes, %d x %d B objects\n",
			spec.Containers, spec.DrivesPerContainer, spec.DataShards, spec.DataShards+spec.ParityShards,
			spec.Objects, spec.ObjectSize)
		fmt.Fprintf(stdout, "traffic: %d requests at %.0f req/s (%.0f%% GET), attack window [%.2f, %.2f] of run\n",
			spec.Requests, spec.Rate, spec.ReadFraction*100, spec.AttackStartFrac, spec.AttackStopFrac)
		fmt.Fprint(stdout, experiment.ClusterReport(rows).String())
		fmt.Fprintln(stdout, "reading the ladder: with one shard per failure domain, GET availability")
		fmt.Fprintf(stdout, "holds at 100%% (served from parity, degraded) until more than m=%d containers\n", spec.ParityShards)
		fmt.Fprintln(stdout, "are silenced at once; durability margin and tail latency erode first.")
		return o.finish(spec.Seed, spec.Workers)
	}
}

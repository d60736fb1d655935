package main

import (
	"flag"
	"fmt"

	"deepnote/internal/experiment"
)

// cmdCluster runs the facility-scale campaign: an erasure-coded
// underwater datacenter serving open-loop client traffic while an
// attacker ladder silences failure domains one point-blank speaker at a
// time. Stdout is byte-identical for any -workers value and with
// metrics on or off.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	spec := experiment.DefaultClusterSpec()
	var bad error
	fs.IntVar(&spec.Containers, "containers", spec.Containers, "container count (failure domains)")
	fs.IntVar(&spec.DrivesPerContainer, "drives", spec.DrivesPerContainer, "drives per container")
	fs.IntVar(&spec.DataShards, "data", spec.DataShards, "data shards per stripe (k)")
	fs.IntVar(&spec.ParityShards, "parity", spec.ParityShards, "parity shards per stripe (m)")
	fs.IntVar(&spec.Objects, "objects", spec.Objects, "objects in the keyspace")
	fs.IntVar(&spec.ObjectSize, "objsize", spec.ObjectSize, "object size in bytes")
	fs.Float64Var((*float64)(&spec.Spacing), "spacing", float64(spec.Spacing), "container spacing in meters")
	fs.Float64Var((*float64)(&spec.Freq), "freq", float64(spec.Freq), "attack tone in Hz")
	fs.IntVar(&spec.MaxSpeakers, "speakers", spec.MaxSpeakers, "top of the speaker ladder (0 = one per container)")
	cell := fs.Int("cell", -1, "run only this ladder cell (speaker count; -1 = full ladder)")
	fs.IntVar(&spec.Requests, "requests", spec.Requests, "client requests per cell")
	fs.Float64Var(&spec.Rate, "rate", spec.Rate, "client arrival rate (requests/second)")
	fs.Float64Var(&spec.ReadFraction, "readfrac", spec.ReadFraction, "GET fraction of the workload (0 = write-only)")
	workersVar(fs, &spec.CellWorkers, &bad, "cell-workers", "drive fan-out inside each cell (never changes results)")
	fs.Float64Var(&spec.AttackStartFrac, "attack-start", spec.AttackStartFrac, "attack-on point as a fraction of the request window")
	fs.Float64Var(&spec.AttackStopFrac, "attack-stop", spec.AttackStopFrac, "attack-off point as a fraction of the window (>= 1: never off)")
	fs.Float64Var(&spec.StaggerFrac, "attack-stagger", spec.StaggerFrac, "stagger key-ons by this fraction of the window (0 = all at once)")
	fs.BoolVar(&spec.Defense, "defense", spec.Defense, "close the loop: hydrophone fixes steer the store in every cell")
	fs.IntVar(&spec.Hydrophones, "hydrophones", spec.Hydrophones, "hydrophone ring elements (with -defense)")
	fs.Float64Var((*float64)(&spec.Standoff), "standoff", float64(spec.Standoff), "hydrophone ring standoff in meters (with -defense)")
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "base seed")
	workersVar(fs, &spec.Workers, &bad, "workers", "parallel workers (0 = one per CPU)")
	o := addObsFlags(fs)
	fs.Parse(args)
	if bad != nil {
		return bad
	}

	spec.Metrics = o.registry()
	if *cell >= 0 {
		spec.Cells = []int{*cell}
	}
	rows, err := experiment.ClusterSweep(spec)
	if err != nil {
		return err
	}
	fmt.Printf("cluster: %d containers x %d drives, %d-of-%d stripes, %d x %d B objects\n",
		spec.Containers, spec.DrivesPerContainer, spec.DataShards, spec.DataShards+spec.ParityShards,
		spec.Objects, spec.ObjectSize)
	fmt.Printf("traffic: %d requests at %.0f req/s (%.0f%% GET), attack window [%.2f, %.2f] of run\n",
		spec.Requests, spec.Rate, spec.ReadFraction*100, spec.AttackStartFrac, spec.AttackStopFrac)
	fmt.Print(experiment.ClusterReport(rows).String())
	fmt.Println("reading the ladder: with one shard per failure domain, GET availability")
	fmt.Printf("holds at 100%% (served from parity, degraded) until more than m=%d containers\n", spec.ParityShards)
	fmt.Println("are silenced at once; durability margin and tail latency erode first.")
	return o.finish("cluster", args, spec.Seed, spec.Workers)
}

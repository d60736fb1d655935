package main

import (
	"flag"
	"fmt"

	"deepnote/internal/experiment"
)

// cmdFleet runs the geo-distributed campaign: a multi-facility fleet
// serves one global workload under both placement policies while an
// acoustic blast silences part of one site and the WAN degrades under
// injected faults (a link flap plus a brownout over the attack window).
// Stdout is byte-identical for any -workers value and with metrics on
// or off.
func cmdFleet(args []string) error {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	spec := experiment.DefaultGeoFleetSpec()
	var bad error
	fs.IntVar(&spec.Sites, "sites", spec.Sites, "facility count")
	fs.IntVar(&spec.ContainersPerSite, "containers", spec.ContainersPerSite, "containers per facility")
	fs.IntVar(&spec.DataShards, "data", spec.DataShards, "data shards per stripe (k)")
	fs.IntVar(&spec.ParityShards, "parity", spec.ParityShards, "parity shards per stripe (m)")
	fs.IntVar(&spec.Objects, "objects", spec.Objects, "objects in the keyspace")
	fs.IntVar(&spec.ObjectSize, "objsize", spec.ObjectSize, "object size in bytes")
	fs.Float64Var((*float64)(&spec.Spacing), "spacing", float64(spec.Spacing), "container spacing in meters")
	fs.Float64Var((*float64)(&spec.Freq), "freq", float64(spec.Freq), "attack tone in Hz")
	fs.IntVar(&spec.Blast, "blast", spec.Blast, "attacked contiguous containers at site 0")
	durationVar(fs, &spec.AttackStart, &bad, "attack-start", "attack-on offset in `seconds`")
	durationVar(fs, &spec.AttackStop, &bad, "attack-stop", "attack-off offset in `seconds`")
	durationVar(fs, &spec.Deadline, &bad, "deadline", "per-request deadline budget in `seconds`")
	fs.IntVar(&spec.Requests, "requests", spec.Requests, "global client requests")
	fs.Float64Var(&spec.Rate, "rate", spec.Rate, "global arrival rate (requests/second)")
	fs.Float64Var(&spec.ReadFraction, "readfrac", spec.ReadFraction, "GET fraction of the workload (0 = write-only)")
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "infrastructure seed (drives, WAN jitter)")
	workersVar(fs, &spec.Workers, &bad, "workers", "parallel workers (0 = one per CPU)")
	workersVar(fs, &spec.CellWorkers, &bad, "cell-workers", "node fan-out inside each fleet (never changes results)")
	o := addObsFlags(fs)
	fs.Parse(args)
	if bad != nil {
		return bad
	}

	spec.Metrics = o.registry()
	res, err := experiment.GeoFleetRun(spec)
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d sites x %d containers, %d-of-%d stripes, %d x %d B objects\n",
		spec.Sites, spec.ContainersPerSite, spec.DataShards,
		spec.DataShards+spec.ParityShards, spec.Objects, spec.ObjectSize)
	fmt.Printf("attack: %d-container blast at site 0 over [%.1fs, %.1fs) with a link flap and a brownout\n",
		spec.Blast, spec.AttackStart.Seconds(), spec.AttackStop.Seconds())
	fmt.Printf("traffic: %d requests at %.0f req/s (%.0f%% GET), deadline %.1fs\n",
		spec.Requests, spec.Rate, spec.ReadFraction*100, spec.Deadline.Seconds())
	fmt.Print(experiment.GeoFleetReport(res).String())
	fmt.Println("reading the table: naive placement keeps every stripe inside its home")
	fmt.Println("site, so one facility blast erases more shards than parity can absorb;")
	fmt.Println("attack-aware placement caps each site's share of a stripe at the parity")
	fmt.Println("budget and strides it across blast radii, so failover reads keep serving")
	fmt.Println("through the same attack — at the cost of routine cross-site traffic.")
	return o.finish("fleet", args, spec.Seed, spec.Workers)
}

package main

import (
	"fmt"
	"math"
	"time"

	"deepnote/internal/attack"
	"deepnote/internal/cluster"
	"deepnote/internal/experiment"
	"deepnote/internal/fio"
	"deepnote/internal/fleet"
	"deepnote/internal/metrics"
	"deepnote/internal/parallel"
	"deepnote/internal/sig"
	"deepnote/internal/sonar"
	"deepnote/internal/units"
)

// Rep sizes. They are fixed, never scaled to the machine: every rep of a
// workload does identical work, so reps compare across runs and commits.
const (
	// table2Runtime is Table 2's readwhilewriting window per distance.
	table2Runtime = time.Second

	// The defended cluster cell: open-loop arrivals at a fixed simulated
	// rate; three speakers key on at ¼, ½ and ¾ of the arrival span.
	cellRequests = 150_000
	cellRate     = 150
	// The naive-placement fleet; its attack spans the middle half of the
	// arrival span.
	fleetRequests = 50_000
	fleetRate     = 300

	// The fingerprint experiment runs one seed per benign scenario and 4 s
	// cells (the defaults are three and 12 s): detection takes about a
	// second, so 3 s after key-on still decides every hostile cell.
	fingerprintDuration = 4 * time.Second
	// exfilBaud is the signaling rate of the exfil sweep: the rate that
	// gives the channel's best goodput.
	exfilBaud = 64.0
)

// sonarSeed fixes the hydrophones' noise draw. Whether a key-on is
// localized decides the whole defense plan, and with it how much work a
// rep does, so the surveillance noise is part of the facility's fixed
// configuration; the benchmark seed varies the drives, the WAN and the
// traffic.
var sonarSeed = parallel.SeedFor(1, 1)

// env is what one rep of a workload receives.
type env struct {
	seed    int64
	workers int               // engine fan-out: 1, or 2 in the scaling rows
	reg     *metrics.Registry // non-nil only in the metrics-overhead pairs
	tr      *tracer           // non-nil only in traced reps
}

// served is what the timed part of a rep returns.
type served struct {
	engines  any                // kept referenced until the live-heap reading
	results  any                // every result struct, hashed into the digest
	sim      map[string]float64 // exact end-to-end metrics
	layer    map[string]float64 // per-layer counts and ratios
	shardOps int                // shard reads + writes, for shard_ops_per_s
	corrupt  int                // reads served with wrong bytes; must be 0
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	// setup builds the engines a rep serves, timed as setup_s, and returns
	// the rep's timed part.
	setup func(e env) (func() (served, error), error)
}

var workloads = []workload{
	{"paper_chain", "The paper's Figure 2, Table 2 and Table 3 through hdd, simclock, blockdev, fio, jfs, kvdb and osmodel; almost no dsp, sched or gf work.", paperChain},
	{"facility_get", "Defended cluster cell and naive fleet at 90% reads: degraded reads, reconstructs, steering, failover and hedging; almost no dsp or kvdb work.", facility(0.9)},
	{"facility_put", "The same facility at 10% reads: encodes, shard writes and evacuation writes, so speeding reads by taxing writes shows here.", facility(0.1)},
	{"signal_watch", "Fingerprinting and covert-channel sweeps through sig, dsp, detect and exfil; no sched, gf or kvdb work.", signalWatch},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// paperChain runs both Figure 2 panels on the default grid, Table 2 and
// Table 3. The experiments build their rigs inside the timed calls, so
// there is nothing to set up.
func paperChain(e env) (func() (served, error), error) {
	return func() (served, error) {
		opts := experiment.Figure2Options{Seed: e.seed, Workers: e.workers, Metrics: e.reg}
		write, err := call(e.tr, "experiment.figure2", func() (experiment.Figure2Result, error) {
			return experiment.Figure2(fio.SeqWrite, opts)
		})
		if err != nil {
			return served{}, err
		}
		read, err := call(e.tr, "experiment.figure2", func() (experiment.Figure2Result, error) {
			return experiment.Figure2(fio.SeqRead, opts)
		})
		if err != nil {
			return served{}, err
		}
		t2, err := call(e.tr, "experiment.table2", func() (experiment.Table2Result, error) {
			return experiment.Table2(experiment.Table2Options{Runtime: table2Runtime, Seed: e.seed, Metrics: e.reg})
		})
		if err != nil {
			return served{}, err
		}
		t3, err := call(e.tr, "experiment.table3", func() (experiment.Table3Result, error) {
			return experiment.Table3Observed(e.seed, e.reg)
		})
		if err != nil {
			return served{}, err
		}

		minWrite := math.Inf(1)
		for _, s := range write.Series {
			for _, v := range s.MBps {
				minWrite = math.Min(minWrite, v)
			}
		}
		crash := -1.0
		for _, o := range t3.Outcomes {
			if o.Target == attack.TargetExt4 && o.Crashed {
				crash = o.TimeToCrash.Seconds()
			}
		}
		return served{
			results: []any{write, read, t2, t3},
			sim: map[string]float64{
				"fig2_min_write_mbps": minWrite,
				"crash_ext4_sim_s":    crash,
			},
		}, nil
	}, nil
}

// facility builds the defended cluster cell and the naive-placement fleet
// serving a mix with the given GET share.
func facility(readFraction float64) func(e env) (func() (served, error), error) {
	return func(e env) (func() (served, error), error) {
		tone := sig.NewTone(650 * units.Hz)
		lay := cluster.LineLayout(6, 2*units.Meter).WithSpeakersAt(tone, 0, 1, 2)
		arrivals := cellRequests * time.Second / cellRate
		steps := []cluster.ScheduleStep{
			{At: arrivals / 4, Active: []bool{true, false, false}},
			{At: arrivals / 2, Active: []bool{true, true, false}},
			{At: 3 * arrivals / 4, Active: []bool{true, true, true}},
		}
		dets, _ := call(e.tr, "sonar.detect_schedule", func() ([]sonar.Detection, error) {
			return sonar.DetectSchedule(lay, sonar.FacilityArray(lay, 6, 3*units.Meter), steps, sonarSeed), nil
		})
		var fixes []cluster.SourceFix
		for _, d := range dets {
			if d.OK {
				fixes = append(fixes, cluster.SourceFix{
					At: d.FixAt, Pos: d.Est.Pos, Err: d.Est.ErrRadius, Tone: lay.Speakers[d.Speaker].Tone,
				})
			}
		}
		cell, err := call(e.tr, "cluster.preload", func() (*cluster.Cluster, error) {
			c, err := cluster.New(cluster.Config{
				Layout: lay, DataShards: 4, ParityShards: 2, Objects: 64, ObjectSize: 16 << 10,
				Seed: cluster.Ptr(parallel.SeedFor(e.seed, 2)), Workers: e.workers,
			})
			if err != nil {
				return nil, err
			}
			if err := c.Preload(); err != nil {
				return nil, err
			}
			c.SetSchedule(steps)
			return c, c.SetDefense(cluster.DefenseSpec{Fixes: fixes})
		})
		if err != nil {
			return nil, err
		}

		fleetArrivals := fleetRequests * time.Second / fleetRate
		attackStart, attackStop := fleetArrivals/4, 3*fleetArrivals/4
		fl, err := call(e.tr, "fleet.preload", func() (*fleet.Fleet, error) {
			return naiveFleet(e, tone, attackStart, attackStop)
		})
		if err != nil {
			return nil, err
		}

		return func() (served, error) {
			cr, err := call(e.tr, "cluster.serve", func() (cluster.ServeResult, error) {
				return cell.Serve(cluster.TrafficSpec{
					Requests: cellRequests, Rate: cellRate, ReadFraction: &readFraction,
					Seed: cluster.Ptr(parallel.SeedFor(e.seed, 3)),
				})
			})
			if err != nil {
				return served{}, err
			}
			fr, err := call(e.tr, "fleet.serve", func() (fleet.Result, error) {
				return fl.Serve(fleet.TrafficSpec{
					Requests: fleetRequests, Rate: fleetRate, ReadFraction: &readFraction,
					Seed: cluster.Ptr(e.seed),
				})
			})
			if err != nil {
				return served{}, err
			}
			window := fr.Window(attackStart, attackStop)
			cell.PublishMetrics(e.reg)
			fl.PublishMetrics(e.reg)
			sonar.PublishMetrics(e.reg, dets)

			cellOps := cr.ShardReads + cr.ShardWrites
			fleetOps := fr.ShardReads + fr.ShardWrites
			return served{
				engines: []any{cell, fl},
				results: []any{dets, cr, fr, window},
				sim: map[string]float64{
					"get_availability":       cr.GetAvailability(),
					"put_availability":       cr.PutAvailability(),
					"p99_sim_s":              cr.P99.Seconds(),
					"fleet_get_availability": window.GetAvailability(),
				},
				layer: map[string]float64{
					"cluster.shard_ops":            float64(cellOps),
					"cluster.shard_error_frac":     ratio(cr.ShardReadErrors+cr.ShardWriteErrors, cellOps),
					"cluster.degraded_read_frac":   ratio(cr.DegradedReads, cr.Gets),
					"cluster.steered_get_frac":     ratio(cr.SteeredGets, cr.Gets),
					"cluster.repair_writes":        float64(cr.RepairWrites),
					"fleet.shard_ops":              float64(fleetOps),
					"fleet.cross_site_frac":        ratio(fr.CrossSiteOps, fleetOps),
					"fleet.failover_waves_per_get": ratio(fr.FailoverWaves, fr.Gets),
					"fleet.hedged_frac":            ratio(fr.HedgedRequests, fr.Gets),
					"fleet.fast_fails":             float64(fr.FastFails),
				},
				shardOps: cellOps + fleetOps,
				corrupt:  cr.CorruptReads + fr.CorruptReads,
			}, nil
		}, nil
	}
}

// naiveFleet builds experiment.GeoFleetRun's naive-placement cell: four
// sites of eight containers, 4+4 coding, a five-container blast at site 0
// and the standard WAN faults over the attack window.
func naiveFleet(e env, tone sig.Tone, attackStart, attackStop time.Duration) (*fleet.Fleet, error) {
	blast := []int{0, 1, 2, 3, 4}
	sites := make([]fleet.SiteSpec, 4)
	for i := range sites {
		lay := cluster.LineLayout(8, 2*units.Meter)
		if i == 0 {
			lay = lay.WithSpeakersAt(tone, blast...)
		}
		sites[i] = fleet.SiteSpec{Name: fmt.Sprintf("site-%d", i), Layout: lay}
	}
	window := attackStop - attackStart
	f, err := fleet.New(fleet.Config{
		Sites: sites, DataShards: 4, ParityShards: 4, Objects: 48, ObjectSize: 8 << 10,
		Placement: fleet.PlacementNaive,
		WAN: fleet.WANConfig{Faults: []fleet.Fault{
			{Kind: fleet.LinkFlap, A: 0, B: 1, Start: attackStart, Duration: window},
			{Kind: fleet.Brownout, A: 2, B: 3, Start: attackStart, Duration: window, Factor: 4},
		}},
		Resilience: fleet.Resilience{Deadline: 2 * time.Second},
		Seed:       cluster.Ptr(e.seed),
		Workers:    e.workers,
	})
	if err != nil {
		return nil, err
	}
	if err := f.Preload(); err != nil {
		return nil, err
	}
	on := make([]bool, len(blast))
	for i := range on {
		on[i] = true
	}
	return f, f.SetAttack(0, []cluster.ScheduleStep{{At: attackStart, Active: on}, {At: attackStop}})
}

// signalWatch runs the fingerprinting experiment and a one-distance exfil
// sweep. Like paperChain, its experiments build their engines inside the
// timed calls.
func signalWatch(e env) (func() (served, error), error) {
	return func() (served, error) {
		fr, err := call(e.tr, "experiment.fingerprint", func() (experiment.FingerprintResult, error) {
			return experiment.FingerprintRun(experiment.FingerprintSpec{
				BenignSeeds: 1, Duration: fingerprintDuration, Seed: e.seed, Workers: e.workers, Metrics: e.reg,
			})
		})
		if err != nil {
			return served{}, err
		}
		xr, err := call(e.tr, "experiment.exfil", func() (experiment.ExfilResult, error) {
			return experiment.ExfilRun(experiment.ExfilSpec{
				Distances:    []units.Distance{5 * units.Meter},
				Depths:       []units.Distance{0},
				SymbolRates:  []float64{exfilBaud},
				Frames:       1,
				DetectFrames: 1,
				Seed:         e.seed,
				Workers:      e.workers,
				Metrics:      e.reg,
			})
		})
		if err != nil {
			return served{}, err
		}

		latency := 0.0
		hostileWin, hostileAll := 0, 0
		for _, r := range fr.Hostile {
			hostileWin += r.Result.HostileWindows
			hostileAll += r.Result.Windows
			if r.SNRdB >= 6 && r.Result.Detected {
				latency = math.Max(latency, r.Result.DetectLatency.Seconds())
			}
		}
		framesOK, framesSent := 0, 0
		for _, rows := range [][]experiment.ExfilRow{xr.Capacity, xr.Rates} {
			for _, r := range rows {
				framesOK += r.FramesOK
				framesSent += r.FramesSent
			}
		}
		return served{
			results: []any{fr, xr},
			sim: map[string]float64{
				"exfil_goodput_bps":      xr.BestGoodputBps,
				"benign_false_positives": float64(fr.FalsePositives),
				"detect_latency_sim_s":   latency,
			},
			layer: map[string]float64{
				"exfil.frames_ok_frac":       ratio(framesOK, framesSent),
				"detect.hostile_window_frac": ratio(hostileWin, hostileAll),
			},
		}, nil
	}, nil
}

func ratio(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

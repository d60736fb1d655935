// Command deepnote regenerates the paper's tables and figures and runs the
// attack procedures from the command line.
//
// Usage:
//
//	deepnote figure2 [-pattern write|read] [-step HZ] [-workers N] [-csv]
//	deepnote table1 [-csv]
//	deepnote table2 [-runtime SECONDS] [-csv]
//	deepnote table3
//	deepnote sweep  [-scenario 1|2|3] [-pattern write|read] [-workers N]
//	deepnote fleet  [-sites N] [-containers N] [-data K] [-parity M] [-blast N] [-workers N]
//	deepnote cluster [-containers N] [-data K] [-parity M] [-speakers N] [-defense] [-workers N]
//	deepnote sonar  [-hydrophones N] [-standoff M] [-speakers N] [-workers N]
//	deepnote fingerprint [-freq HZ] [-snrs DB,DB,...] [-seeds N] [-workers N]
//	deepnote range  [-scenario 1|2|3] [-freq HZ]
//	deepnote crash  [-target ext4|ubuntu|rocksdb]
//	deepnote defense [-scenario 1|2|3] [-distance CM]
//	deepnote stealthgrid [-duration SECONDS] [-workers N]
//	deepnote selfcheck [-scenario 1|2|3] [-workers N] [-tol FRAC] [-report PATH]
//	deepnote all
//
// Grid-shaped commands (figure2, sweep, fleet, cluster, ablation,
// stealthgrid) fan their independent simulation cells over a worker pool;
// -workers N bounds the parallelism (0, the default, means one worker per
// CPU). Results are bit-identical for any worker count.
//
// The experiment commands (figure2, table1-3, sweep, range, crash, outage,
// resilience, selfcheck, stealthgrid, cluster, fleet, sonar, fingerprint,
// exfil) also accept -metrics PATH and -manifest PATH: the run is instrumented
// with per-layer counters (hdd, blockdev, fio, jfs, kvdb, osmodel, attack,
// parallel, experiment), the snapshot/manifest is written as JSON, and a
// per-layer summary table goes to stderr. Instrumentation never touches
// the simulation clock or RNG, so stdout stays byte-identical with
// metrics on or off.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"time"

	"deepnote/internal/attack"
	"deepnote/internal/campaign"
	"deepnote/internal/core"
	"deepnote/internal/defense"
	"deepnote/internal/experiment"
	"deepnote/internal/fio"
	"deepnote/internal/metrics"
	"deepnote/internal/report"
	"deepnote/internal/thermal"
	"deepnote/internal/units"
	"deepnote/internal/valid"
	"deepnote/internal/water"
)

// command is one deepnote subcommand: main dispatches on name, usage lists
// summary, and the golden test pins every entry but "all".
type command struct {
	name    string
	run     func([]string) error
	summary string
}

var commands = []command{
	{"figure2", cmdFigure2, "throughput vs attack frequency, all scenarios (Figure 2)"},
	{"table1", cmdTable1, "FIO throughput/latency vs distance (Table 1)"},
	{"table2", cmdTable2, "RocksDB readwhilewriting vs distance (Table 2)"},
	{"table3", cmdTable3, "software time-to-crash (Table 3)"},
	{"sweep", cmdSweep, "attacker's two-phase frequency sweep"},
	{"range", cmdRange, "range test at a chosen frequency"},
	{"crash", cmdCrash, "prolonged attack against one software stack"},
	{"defense", cmdDefense, "evaluate the defense suite"},
	{"deploy", cmdDeploy, "defense suite with thermal consequences (acoustic + cooling)"},
	{"section5", cmdSection5, "open-water effective-range analysis (attacker tiers x waters)"},
	{"natick", cmdNatick, "enclosure hardening analysis (incl. steel pressure vessel)"},
	{"outage", cmdOutage, "controlled-outage timeline (attack on, attack off)"},
	{"remotesweep", cmdRemoteSweep, "latency-only reconnaissance against a storage service"},
	{"stealth", cmdStealth, "duty-cycled attack vs the victim's anomaly detector"},
	{"stealthgrid", cmdStealthGrid, "duty-cycle (on x off) grid: the damage/stealth trade-off matrix"},
	{"ablation", cmdAblation, "headline metrics with model mechanisms removed"},
	{"resilience", cmdResilience, "prolonged attack vs hardening ladder (bare / watchdog / hardened)"},
	{"ultrasonic", cmdUltrasonic, "shock-sensor vector reachability through the enclosure"},
	{"fleet", cmdFleet, "geo-distributed fleet under facility attack: attack-aware vs naive placement"},
	{"cluster", cmdCluster, "erasure-coded datacenter serving traffic under a speaker ladder"},
	{"sonar", cmdSonar, "closed-loop defense: hydrophone localization steering the store"},
	{"fingerprint", cmdFingerprint, "spectral attack fingerprinting vs the benign ambient corpus"},
	{"exfil", cmdExfil, "covert acoustic exfiltration: capacity map, rate sweep, fingerprint defense"},
	{"adaptive", cmdAdaptive, "closed-loop attacker: find the best tone within a probe budget"},
	{"integrity", cmdIntegrity, "silent adjacent-track corruption under a marginal attack"},
	{"selfcheck", cmdSelfCheck, "differential check: analytic oracle vs Monte-Carlo simulation"},
	{"all", cmdAll, "regenerate every paper artifact"},
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name, args := os.Args[1], os.Args[2:]
	switch name {
	case "help", "-h", "--help":
		usage()
		return
	}
	for _, c := range commands {
		if c.name == name {
			if err := c.run(args); err != nil {
				fmt.Fprintf(os.Stderr, "deepnote %s: %v\n", name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "deepnote: unknown command %q\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "deepnote — underwater acoustic HDD attack simulator (HotStorage '23 reproduction)\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-11s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, `
observability (figure2, table1-3, sweep, range, crash, outage, resilience, selfcheck, stealthgrid,
               cluster, fleet, sonar, fingerprint, exfil):
  -metrics PATH   write a per-layer metrics snapshot JSON
  -manifest PATH  write a run manifest JSON (spec, seed, git, metrics)`)
}

// obs carries the -metrics/-manifest observability flags shared by the
// instrumented experiment commands.
type obs struct {
	metricsPath  *string
	manifestPath *string
	reg          *metrics.Registry
}

func addObsFlags(fs *flag.FlagSet) *obs {
	o := &obs{}
	o.metricsPath = fs.String("metrics", "", "write a per-layer metrics snapshot JSON to this path")
	o.manifestPath = fs.String("manifest", "", "write a run manifest JSON to this path")
	return o
}

// registry returns the registry to thread through the run — non-nil only
// when an output path was requested, so unobserved runs skip all
// instrumentation.
func (o *obs) registry() *metrics.Registry {
	if *o.metricsPath == "" && *o.manifestPath == "" {
		return nil
	}
	if o.reg == nil {
		o.reg = metrics.NewRegistry()
	}
	return o.reg
}

// finish writes the requested artifacts and prints the per-layer summary
// to stderr. Stdout is untouched, so command output stays byte-identical
// with metrics on or off.
func (o *obs) finish(command string, args []string, seed int64, workers int) error {
	reg := o.registry()
	if reg == nil {
		return nil
	}
	snap := reg.Snapshot()
	if *o.metricsPath != "" {
		if err := metrics.WriteSnapshot(*o.metricsPath, snap); err != nil {
			return err
		}
	}
	if *o.manifestPath != "" {
		m := metrics.NewManifest(command, args, seed, workers, snap)
		if err := metrics.WriteManifest(*o.manifestPath, m); err != nil {
			return err
		}
	}
	fmt.Fprint(os.Stderr, snap.LayerTable().String())
	return nil
}

// durationVar defines flag name, given in seconds, bound to *d with *d as
// its default. A value no Duration can hold (NaN, ±Inf, beyond ±292
// years) is kept in *bad instead of failing the parse, so the command
// reports it as a domain error (exit 1) like every other bad value, not
// as a usage error (exit 2).
func durationVar(fs *flag.FlagSet, d *time.Duration, bad *error, name, usage string) {
	fs.Func(name, fmt.Sprintf("%s (default %g)", usage, d.Seconds()), func(s string) error {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		if ns := v * float64(time.Second); math.Abs(ns) < math.MaxInt64 {
			*d = time.Duration(ns)
		} else {
			*bad = fmt.Errorf("-%s %v: not a duration in seconds", name, v)
		}
		return nil
	})
}

func parseScenario(n int) (core.Scenario, error) {
	switch n {
	case 1:
		return core.Scenario1, nil
	case 2:
		return core.Scenario2, nil
	case 3:
		return core.Scenario3, nil
	default:
		return 0, fmt.Errorf("scenario must be 1, 2, or 3 (got %d)", n)
	}
}

func parsePattern(s string) (fio.Pattern, error) {
	switch s {
	case "write":
		return fio.SeqWrite, nil
	case "read":
		return fio.SeqRead, nil
	default:
		return 0, fmt.Errorf("pattern must be write or read (got %q)", s)
	}
}

func cmdFigure2(args []string) error {
	fs := flag.NewFlagSet("figure2", flag.ExitOnError)
	pattern := fs.String("pattern", "write", "write or read")
	stepHz := fs.Float64("step", 200, "frequency step in Hz")
	workers := fs.Int("workers", 0, "parallel workers (0 = one per CPU)")
	csv := fs.Bool("csv", false, "emit CSV instead of an ASCII chart")
	o := addObsFlags(fs)
	fs.Parse(args)
	if err := valid.Positive("-step", *stepHz); err != nil {
		return err
	}
	p, err := parsePattern(*pattern)
	if err != nil {
		return err
	}
	res, err := experiment.Figure2(p, experiment.Figure2Options{
		Step: units.Frequency(*stepHz), JobRuntime: 300 * time.Millisecond,
		Workers: *workers, Metrics: o.registry(),
	})
	if err != nil {
		return err
	}
	chart := res.Chart()
	if *csv {
		fmt.Print(chart.CSV())
		return o.finish("figure2", args, 1, *workers)
	}
	fmt.Print(chart.String())
	for _, sc := range []core.Scenario{core.Scenario1, core.Scenario2, core.Scenario3} {
		if band, ok := res.VulnerableBand(sc); ok {
			fmt.Printf("%v: ≥50%% loss band %v\n", sc, band)
		}
	}
	return o.finish("figure2", args, 1, *workers)
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	csv := fs.Bool("csv", false, "emit CSV")
	o := addObsFlags(fs)
	fs.Parse(args)
	res, err := experiment.Table1Observed(1, o.registry())
	if err != nil {
		return err
	}
	printTable(res.Report(), *csv)
	return o.finish("table1", args, 1, 1)
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	window := fs.Float64("runtime", 5, "measurement window per distance (virtual seconds)")
	csv := fs.Bool("csv", false, "emit CSV")
	o := addObsFlags(fs)
	fs.Parse(args)
	// Table2Options reads a zero Runtime as 5 s.
	if err := valid.Positive("-runtime", *window); err != nil {
		return err
	}
	res, err := experiment.Table2(experiment.Table2Options{
		Runtime: time.Duration(*window * float64(time.Second)),
		Metrics: o.registry(),
	})
	if err != nil {
		return err
	}
	printTable(res.Report(), *csv)
	return o.finish("table2", args, 1, 1)
}

func cmdTable3(args []string) error {
	fs := flag.NewFlagSet("table3", flag.ExitOnError)
	o := addObsFlags(fs)
	fs.Parse(args)
	res, err := experiment.Table3Observed(1, o.registry())
	if err != nil {
		return err
	}
	fmt.Print(res.Report().String())
	fmt.Printf("mean time to crash: %.1f seconds (paper: 80.8)\n", res.MeanTimeToCrash().Seconds())
	return o.finish("table3", args, 1, 1)
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	scenario := fs.Int("scenario", 2, "testbed scenario (1-3)")
	pattern := fs.String("pattern", "write", "write or read")
	workers := fs.Int("workers", 0, "parallel workers (0 = one per CPU)")
	o := addObsFlags(fs)
	fs.Parse(args)
	s, err := parseScenario(*scenario)
	if err != nil {
		return err
	}
	p, err := parsePattern(*pattern)
	if err != nil {
		return err
	}
	res, err := attack.Sweeper{Scenario: s, Workers: *workers, Metrics: o.registry()}.Run(p)
	if err != nil {
		return err
	}
	fmt.Printf("sweep of %v (%v): %d points measured\n", s, p, len(res.Points))
	for _, b := range res.Bands {
		fmt.Printf("  vulnerable band: %v\n", b)
	}
	return o.finish("sweep", args, 1, *workers)
}

func cmdRange(args []string) error {
	fs := flag.NewFlagSet("range", flag.ExitOnError)
	scenario := fs.Int("scenario", 2, "testbed scenario (1-3)")
	freq := fs.Float64("freq", 650, "attack frequency in Hz")
	o := addObsFlags(fs)
	fs.Parse(args)
	if err := valid.Positive("-freq", *freq); err != nil {
		return err
	}
	s, err := parseScenario(*scenario)
	if err != nil {
		return err
	}
	rows, err := attack.RangeTest{Scenario: s, Freq: units.Frequency(*freq), Metrics: o.registry()}.Run()
	if err != nil {
		return err
	}
	tb := report.NewTable(
		fmt.Sprintf("Range test at %.0f Hz, %v", *freq, s),
		"Distance", "Read MB/s", "Write MB/s", "Read ms", "Write ms")
	for _, row := range rows {
		label := "No Attack"
		if row.Distance > 0 {
			label = fmt.Sprintf("%.0f cm", row.Distance.Centimeters())
		}
		tb.AddRow(label,
			report.FormatMBps(row.ReadMBps), report.FormatMBps(row.WriteMBps),
			report.FormatLatencyMs(row.ReadLatMs), report.FormatLatencyMs(row.WriteLatMs))
	}
	fmt.Print(tb.String())
	if d, ok := attack.MaxEffectiveDistance(rows, 0.05); ok {
		fmt.Printf("maximum effective distance (≥5%% write loss): %v\n", d)
	}
	return o.finish("range", args, 1, 1)
}

func cmdCrash(args []string) error {
	fs := flag.NewFlagSet("crash", flag.ExitOnError)
	target := fs.String("target", "ext4", "ext4, ubuntu, or rocksdb")
	o := addObsFlags(fs)
	fs.Parse(args)
	out, err := attack.ProlongedAttack{Metrics: o.registry()}.Run(attack.CrashTarget(*target))
	if err != nil {
		return err
	}
	if !out.Crashed {
		fmt.Printf("%s survived the attack window\n", out.Target)
		return o.finish("crash", args, 1, 1)
	}
	fmt.Printf("%s crashed after %.1f seconds\n", out.Target, out.TimeToCrash.Seconds())
	fmt.Printf("error output: %s\n", out.ErrorOutput)
	return o.finish("crash", args, 1, 1)
}

func cmdDefense(args []string) error {
	fs := flag.NewFlagSet("defense", flag.ExitOnError)
	scenario := fs.Int("scenario", 2, "testbed scenario (1-3)")
	distance := fs.Float64("distance", 1, "speaker distance in cm")
	fs.Parse(args)
	s, err := parseScenario(*scenario)
	if err != nil {
		return err
	}
	tb, err := core.NewTestbed(s, units.Distance(*distance)*units.Centimeter)
	if err != nil {
		return err
	}
	evs := defense.EvaluateAll(tb)
	out := report.NewTable(
		fmt.Sprintf("Defense evaluation, %v at %.0f cm", s, *distance),
		"Defense", "Peak ratio before", "after", "Protected", "Residual band", "Thermal cost")
	for _, ev := range evs {
		out.AddRow(ev.Defense,
			fmt.Sprintf("%.2f", ev.PeakRatioBefore),
			fmt.Sprintf("%.2f", ev.PeakRatioAfter),
			fmt.Sprintf("%v", ev.Protected),
			fmt.Sprintf("%.0f Hz", float64(ev.ResidualBandHz)),
			fmt.Sprintf("+%.1f°C", ev.ThermalPenaltyC))
	}
	fmt.Print(out.String())
	return nil
}

func cmdDeploy(args []string) error {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	scenario := fs.Int("scenario", 2, "testbed scenario (1-3)")
	distance := fs.Float64("distance", 20, "speaker distance in cm")
	waterTemp := fs.Float64("watertemp", 12, "sea temperature in °C")
	load := fs.Float64("load", 22.7, "sustained drive load in MB/s")
	fs.Parse(args)
	// The water model's temperature domain is [-2, 40] °C.
	if err := valid.In("-watertemp", *waterTemp, -2, 40); err != nil {
		return err
	}
	if err := valid.AtLeast("-load", *load, 0); err != nil {
		return err
	}
	s, err := parseScenario(*scenario)
	if err != nil {
		return err
	}
	tb, err := core.NewTestbed(s, units.Distance(*distance)*units.Centimeter)
	if err != nil {
		return err
	}
	sea := water.Seawater(36)
	sea.TempC = *waterTemp
	tm := thermal.Default(sea)
	out := report.NewTable(
		fmt.Sprintf("Deployment verdicts, %v at %.0f cm, sea %.0f°C, load %.1f MB/s",
			s, *distance, *waterTemp, *load),
		"Defense", "Protected", "Thermal", "Throttle", "Deployable")
	for _, v := range defense.EvaluateDeploymentAll(tb, tm, *load) {
		out.AddRow(v.Defense,
			fmt.Sprintf("%v", v.Protected),
			v.ThermalState.String(),
			fmt.Sprintf("%.2f", v.ThrottleFactor),
			fmt.Sprintf("%v", v.Deployable))
	}
	fmt.Print(out.String())
	return nil
}

func cmdSection5(args []string) error {
	fs := flag.NewFlagSet("section5", flag.ExitOnError)
	freq := fs.Float64("freq", 650, "attack frequency in Hz")
	fs.Parse(args)
	if err := valid.Positive("-freq", *freq); err != nil {
		return err
	}
	rows, err := experiment.Section5Ranges(units.Frequency(*freq))
	if err != nil {
		return err
	}
	fmt.Print(experiment.Section5Report(rows).String())
	fmt.Println()
	fmt.Print(experiment.Section5SoundSpeedReport(experiment.Section5SoundSpeed()).String())
	return nil
}

func cmdNatick(args []string) error {
	fs := flag.NewFlagSet("natick", flag.ExitOnError)
	fs.Parse(args)
	rows, err := experiment.NatickAnalysis()
	if err != nil {
		return err
	}
	fmt.Print(experiment.NatickReport(rows).String())
	return nil
}

func cmdOutage(args []string) error {
	fs := flag.NewFlagSet("outage", flag.ExitOnError)
	spec := experiment.DefaultControlledOutage()
	var bad error
	fs.Float64Var((*float64)(&spec.Freq), "freq", float64(spec.Freq), "attack frequency in Hz")
	durationVar(fs, &spec.During, &bad, "during", "attack window in virtual `seconds`")
	o := addObsFlags(fs)
	fs.Parse(args)
	if bad != nil {
		return bad
	}
	spec.Metrics = o.registry()
	res, err := spec.Run()
	if err != nil {
		return err
	}
	fmt.Print(res.Chart().String())
	fmt.Printf("phase means: before %.1f MB/s, during %.1f MB/s, after %.1f MB/s\n",
		res.BeforeMBps, res.DuringMBps, res.AfterMBps)
	return o.finish("outage", args, 1, 1)
}

func cmdRemoteSweep(args []string) error {
	fs := flag.NewFlagSet("remotesweep", flag.ExitOnError)
	scenario := fs.Int("scenario", 2, "testbed scenario (1-3)")
	fs.Parse(args)
	s, err := parseScenario(*scenario)
	if err != nil {
		return err
	}
	res, err := attack.RemoteSweeper{Scenario: s}.Run()
	if err != nil {
		return err
	}
	fmt.Printf("remote reconnaissance against %v (latency-only observations)\n", s)
	fmt.Printf("healthy baseline: %.2f ms median PUT\n", res.Baseline.Seconds()*1000)
	for _, b := range res.InferredBands {
		fmt.Printf("inferred vulnerable band: %v\n", b)
	}
	flagged := 0
	for _, p := range res.Probes {
		if p.Suspicious(res.Baseline) {
			flagged++
		}
	}
	fmt.Printf("%d/%d probed frequencies flagged\n", flagged, len(res.Probes))
	return nil
}

func cmdStealth(args []string) error {
	fs := flag.NewFlagSet("stealth", flag.ExitOnError)
	spec := campaign.DefaultStealth()
	var bad error
	durationVar(fs, &spec.Duty.On, &bad, "on", "attack burst length in `seconds`")
	durationVar(fs, &spec.Duty.Off, &bad, "off", "quiet gap in `seconds` (0 = continuous)")
	durationVar(fs, &spec.Duration, &bad, "duration", "campaign length in virtual `seconds`")
	fs.Parse(args)
	if bad != nil {
		return bad
	}
	res, err := spec.Run()
	if err != nil {
		return err
	}
	fmt.Printf("duty cycle: %.0f%% on-air (%gs on / %gs off)\n",
		res.Spec.Duty.Fraction()*100, spec.Duty.On.Seconds(), spec.Duty.Off.Seconds())
	fmt.Printf("victim throughput: %.1f -> %.1f MB/s (%.0f%% loss)\n",
		res.BaselineMBps, res.CampaignMBps, res.LossFraction*100)
	fmt.Printf("victim detector: %d alarms, max suspicion %.2f\n", res.Alarms, res.MaxSuspicion)
	return nil
}

func cmdStealthGrid(args []string) error {
	fs := flag.NewFlagSet("stealthgrid", flag.ExitOnError)
	grid := campaign.DefaultGrid()
	var bad error
	durationVar(fs, &grid.Base.Duration, &bad, "duration", "campaign length per cell in virtual `seconds`")
	fs.Int64Var(&grid.Base.Seed, "seed", grid.Base.Seed, "base seed")
	fs.IntVar(&grid.Workers, "workers", grid.Workers, "parallel workers (0 = one per CPU)")
	o := addObsFlags(fs)
	fs.Parse(args)
	if bad != nil {
		return bad
	}
	grid.Metrics = o.registry()
	rows, err := grid.Run()
	if err != nil {
		return err
	}
	fmt.Print(campaign.GridReport(rows).String())
	return o.finish("stealthgrid", args, grid.Base.Seed, grid.Workers)
}

func cmdAblation(args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	workers := fs.Int("workers", 0, "parallel workers (0 = one per CPU)")
	fs.Parse(args)
	rows, err := experiment.AblationWorkers(1, *workers)
	if err != nil {
		return err
	}
	fmt.Print(experiment.AblationReport(rows).String())
	return nil
}

func cmdResilience(args []string) error {
	fs := flag.NewFlagSet("resilience", flag.ExitOnError)
	spec := experiment.DefaultResilience()
	var bad error
	durationVar(fs, &spec.Attack, &bad, "attack", "attack window in virtual `seconds`")
	durationVar(fs, &spec.Cooldown, &bad, "cooldown", "post-attack recovery window in virtual `seconds`")
	fs.IntVar(&spec.Workers, "workers", spec.Workers, "parallel workers (0 = one per CPU)")
	o := addObsFlags(fs)
	fs.Parse(args)
	if bad != nil {
		return bad
	}
	spec.Metrics = o.registry()
	rows, err := spec.Run()
	if err != nil {
		return err
	}
	fmt.Print(experiment.ResilienceReport(rows).String())
	fmt.Println("the bare stack reproduces the paper's crash and stays down; the watchdog")
	fmt.Println("stack recovers once the tone stops (journal replay, fsck, WAL recovery);")
	fmt.Println("the hardened stack additionally masks the injected pre-attack fault burst.")
	return o.finish("resilience", args, 1, spec.Workers)
}

func cmdUltrasonic(args []string) error {
	fs := flag.NewFlagSet("ultrasonic", flag.ExitOnError)
	scenario := fs.Int("scenario", 2, "testbed scenario (1-3)")
	fs.Parse(args)
	s, err := parseScenario(*scenario)
	if err != nil {
		return err
	}
	rows, err := experiment.Ultrasonic(s)
	if err != nil {
		return err
	}
	fmt.Print(experiment.UltrasonicReport(s, rows).String())
	fmt.Println("conclusion: the enclosure wall attenuates ultrasonic content below the")
	fmt.Println("shock-sensor threshold — the in-air head-parking vector does not survive")
	fmt.Println("the underwater path, consistent with the paper's sweep observations.")
	return nil
}

func cmdAdaptive(args []string) error {
	fs := flag.NewFlagSet("adaptive", flag.ExitOnError)
	scenario := fs.Int("scenario", 2, "testbed scenario (1-3)")
	budget := fs.Int("budget", 25, "probe budget")
	fs.Parse(args)
	if err := valid.AtLeast("-budget", *budget, 1); err != nil {
		return err
	}
	s, err := parseScenario(*scenario)
	if err != nil {
		return err
	}
	res, err := attack.Adaptive{Scenario: s, Budget: *budget}.Run()
	if err != nil {
		return err
	}
	fmt.Printf("baseline: %.1f MB/s\n", res.Baseline)
	fmt.Printf("best tone: %v (%.0f%% throughput loss) after %d probes\n",
		res.Best.Freq, res.Best.Degradation*100, len(res.Probes))
	return nil
}

func cmdIntegrity(args []string) error {
	fs := flag.NewFlagSet("integrity", flag.ExitOnError)
	spec := experiment.DefaultIntegrity()
	distance := fs.Float64("distance", spec.Distance.Centimeters(), "speaker distance in cm (the marginal zone)")
	fs.Float64Var(&spec.CorruptionProb, "prob", spec.CorruptionProb, "per-marginal-write squeeze probability")
	fs.Parse(args)
	spec.Distance = units.Distance(*distance) * units.Centimeter
	res, err := spec.Run()
	if err != nil {
		return err
	}
	fmt.Print(res.Report().String())
	fmt.Println("note: the attack phase completed with few or no visible failures —")
	fmt.Println("availability monitoring alone would not notice this attack.")
	return nil
}

func cmdAll(args []string) error {
	fmt.Println("=== Figure 2(a): sequential write ===")
	if err := cmdFigure2([]string{"-pattern", "write"}); err != nil {
		return err
	}
	fmt.Println("\n=== Figure 2(b): sequential read ===")
	if err := cmdFigure2([]string{"-pattern", "read"}); err != nil {
		return err
	}
	fmt.Println("\n=== Table 1 ===")
	if err := cmdTable1(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Table 2 ===")
	if err := cmdTable2(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Table 3 ===")
	if err := cmdTable3(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Defense suite ===")
	if err := cmdDefense(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Section 5: effective range ===")
	if err := cmdSection5(nil); err != nil {
		return err
	}
	fmt.Println("\n=== Enclosure hardening (Natick-class) ===")
	return cmdNatick(nil)
}

func printTable(t *report.Table, csv bool) {
	if csv {
		fmt.Print(t.CSV())
		return
	}
	fmt.Print(t.String())
}

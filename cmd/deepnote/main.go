// Command deepnote regenerates the paper's tables and figures and runs the
// attack procedures from the command line. "deepnote help" lists the
// subcommands, and "deepnote <command> -h" lists a subcommand's flags.
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
//
// The exit status is 0 on success and for -h, 2 for a usage error (an
// unknown command or flag, a value that does not parse, a stray argument),
// and 1 for every other error, which is printed as "deepnote <command>: ...".
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

// command is one deepnote subcommand: run dispatches on name, usage lists
// summary, and the golden test pins every entry but "all". define declares
// the subcommand's flags on fs and returns the run they configure.
type command struct {
	name    string
	define  func(fs *flagSet) func(stdout io.Writer) error
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run runs the subcommand args names and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	name, args := args[0], args[1:]
	switch name {
	case "help", "-h", "--help":
		usage(stderr)
		return 0
	}
	for _, c := range commands {
		if c.name != name {
			continue
		}
		err := invoke(c, args, stdout, stderr)
		switch {
		case err == nil || errors.Is(err, flag.ErrHelp):
			return 0
		case errors.Is(err, errUsage):
			return 2
		}
		fmt.Fprintf(stderr, "deepnote %s: %v\n", name, err)
		return 1
	}
	fmt.Fprintf(stderr, "deepnote: unknown command %q\n", name)
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "deepnote — underwater acoustic HDD attack simulator (HotStorage '23 reproduction)\n\ncommands:")
	for _, c := range commands {
		fmt.Fprintf(w, "  %-11s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w, `
observability (figure2, table1-3, sweep, range, crash, outage, resilience, selfcheck, stealthgrid,
               cluster, fleet, sonar, fingerprint, exfil):
  -metrics PATH   write a per-layer metrics snapshot JSON
  -manifest PATH  write a run manifest JSON (spec, seed, git, metrics)`)
}

// invoke parses args against the flags c defines, then runs c.
func invoke(c command, args []string, stdout, stderr io.Writer) error {
	fs := &flagSet{FlagSet: flag.NewFlagSet(c.name, flag.ContinueOnError), args: args}
	fs.SetOutput(stderr)
	runCmd := c.define(fs)
	if err := fs.parse(); err != nil {
		return err
	}
	return runCmd(stdout)
}

// errUsage is returned by flagSet.parse for a usage error, which the flag
// set has already printed with its usage.
var errUsage = errors.New("usage error")

// flagSet is a subcommand's flag set and the arguments it parses. A value
// that parses but lies outside its domain is kept in bad, and parse returns
// it, so the command reports it as a domain error (exit 1) like every other
// bad value, not as a usage error (exit 2).
type flagSet struct {
	*flag.FlagSet
	args []string
	bad  error
}

// parse parses fs.args. It returns flag.ErrHelp for -h, errUsage for an
// unknown flag, a value that does not parse or a stray argument (flag
// parsing stops at the first non-flag, so the flags after it would be
// dropped), and otherwise the last out-of-domain value.
func (fs *flagSet) parse() error {
	if err := fs.Parse(fs.args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(fs.Output(), "unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return errUsage
	}
	return fs.bad
}

// durationVar defines flag name, given in seconds, bound to *d with *d as
// its default. A value no Duration can hold (NaN, ±Inf, beyond ±292
// years) is a domain error.
func (fs *flagSet) durationVar(d *time.Duration, name, usage string) {
	fs.Func(name, fmt.Sprintf("%s (default %g)", usage, d.Seconds()), func(s string) error {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		if sec, err := valid.Seconds("-"+name, v); err == nil {
			*d = sec
		} else {
			fs.bad = err
		}
		return nil
	})
}

// scenarioVar defines flag -scenario, a testbed scenario number, bound to
// *s with *s as its default. A number that names no scenario is a domain
// error.
func (fs *flagSet) scenarioVar(s *core.Scenario) {
	fs.Func("scenario", fmt.Sprintf("testbed scenario 1, 2, or 3 (default %d)", int(*s)), func(v string) error {
		n, err := strconv.ParseInt(v, 0, strconv.IntSize)
		if err != nil {
			return err
		}
		if *s, err = core.ParseScenario(int(n)); err != nil {
			fs.bad = err
		}
		return nil
	})
}

// workersVar defines flag name, a worker count, bound to *n with *n as its
// default; 0 means one worker per CPU. A negative count is a domain error,
// not a request for one worker per CPU.
func (fs *flagSet) workersVar(n *int, name, usage string) {
	fs.Func(name, fmt.Sprintf("%s (default %d)", usage, *n), func(s string) error {
		v, err := strconv.ParseInt(s, 0, strconv.IntSize)
		if err != nil {
			return err
		}
		*n = int(v)
		if err := valid.AtLeast("-"+name, *n, 0); err != nil {
			fs.bad = err
		}
		return nil
	})
}

// facilityVars defines the flags of the Facility fields that cluster,
// sonar and fleet share, bound to f with f's values as defaults.
func (fs *flagSet) facilityVars(f *experiment.Facility) {
	fs.IntVar(&f.DataShards, "data", f.DataShards, "data shards per stripe (k)")
	fs.IntVar(&f.ParityShards, "parity", f.ParityShards, "parity shards per stripe (m)")
	fs.IntVar(&f.Objects, "objects", f.Objects, "objects in the keyspace")
	fs.IntVar(&f.ObjectSize, "objsize", f.ObjectSize, "object size in bytes")
	fs.Float64Var((*float64)(&f.Spacing), "spacing", float64(f.Spacing), "container spacing in meters")
	fs.Float64Var((*float64)(&f.Freq), "freq", float64(f.Freq), "attack tone in Hz")
	fs.IntVar(&f.Requests, "requests", f.Requests, "client requests per serving run")
	fs.Float64Var(&f.Rate, "rate", f.Rate, "client arrival rate (requests/second)")
	fs.Float64Var(&f.ReadFraction, "readfrac", f.ReadFraction, "GET fraction of the workload (0 = write-only)")
	fs.Int64Var(&f.Seed, "seed", f.Seed, "base seed")
}

// siteVars defines the flags of the Site fields that cluster and sonar
// share, bound to s with s's values as defaults.
func (fs *flagSet) siteVars(s *experiment.Site) {
	fs.IntVar(&s.Containers, "containers", s.Containers, "container count (failure domains)")
	fs.IntVar(&s.DrivesPerContainer, "drives", s.DrivesPerContainer, "drives per container")
	fs.IntVar(&s.Hydrophones, "hydrophones", s.Hydrophones, "hydrophone ring elements")
	fs.Float64Var((*float64)(&s.Standoff), "standoff", float64(s.Standoff), "hydrophone ring standoff beyond the farthest container, meters")
	fs.Float64Var(&s.AttackStartFrac, "attack-start", s.AttackStartFrac, "first key-on as a fraction of the request window")
	fs.Float64Var(&s.StaggerFrac, "attack-stagger", s.StaggerFrac, "gap between key-ons as a fraction of the window (0 = all at once)")
}

// obs carries the -metrics/-manifest observability flags shared by the
// instrumented experiment commands.
type obs struct {
	metricsPath  *string
	manifestPath *string
	reg          *metrics.Registry
	fs           *flagSet
}

func addObsFlags(fs *flagSet) *obs {
	return &obs{
		metricsPath:  fs.String("metrics", "", "write a per-layer metrics snapshot JSON to this path"),
		manifestPath: fs.String("manifest", "", "write a run manifest JSON to this path"),
		fs:           fs,
	}
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
func (o *obs) finish(seed int64, workers int) error {
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
		m := metrics.NewManifest(o.fs.Name(), o.fs.args, seed, workers, snap)
		if err := metrics.WriteManifest(*o.manifestPath, m); err != nil {
			return err
		}
	}
	fmt.Fprint(o.fs.Output(), snap.LayerTable().String())
	return nil
}

func parsePattern(s string) (fio.Pattern, error) {
	if p, ok := map[string]fio.Pattern{"write": fio.SeqWrite, "read": fio.SeqRead}[s]; ok {
		return p, nil
	}
	return 0, fmt.Errorf("pattern must be write or read (got %q)", s)
}

func cmdFigure2(fs *flagSet) func(io.Writer) error {
	pattern := fs.String("pattern", "write", "write or read")
	stepHz := fs.Float64("step", 200, "frequency step in Hz")
	var workers int
	fs.workersVar(&workers, "workers", "parallel workers (0 = one per CPU)")
	csv := fs.Bool("csv", false, "emit CSV instead of an ASCII chart")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		if err := valid.Positive("-step", *stepHz); err != nil {
			return err
		}
		p, err := parsePattern(*pattern)
		if err != nil {
			return err
		}
		res, err := experiment.Figure2(p, experiment.Figure2Options{
			Step: units.Frequency(*stepHz), JobRuntime: 300 * time.Millisecond,
			Workers: workers, Metrics: o.registry(),
		})
		if err != nil {
			return err
		}
		chart := res.Chart()
		if *csv {
			fmt.Fprint(stdout, chart.CSV())
			return o.finish(1, workers)
		}
		fmt.Fprint(stdout, chart.String())
		for _, sc := range []core.Scenario{core.Scenario1, core.Scenario2, core.Scenario3} {
			if band, ok := res.VulnerableBand(sc); ok {
				fmt.Fprintf(stdout, "%v: ≥50%% loss band %v\n", sc, band)
			}
		}
		return o.finish(1, workers)
	}
}

func cmdTable1(fs *flagSet) func(io.Writer) error {
	csv := fs.Bool("csv", false, "emit CSV")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		res, err := experiment.Table1Observed(1, o.registry())
		if err != nil {
			return err
		}
		printTable(stdout, res.Report(), *csv)
		return o.finish(1, 1)
	}
}

func cmdTable2(fs *flagSet) func(io.Writer) error {
	window := fs.Float64("runtime", 5, "measurement window per distance (virtual seconds)")
	csv := fs.Bool("csv", false, "emit CSV")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
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
		printTable(stdout, res.Report(), *csv)
		return o.finish(1, 1)
	}
}

func cmdTable3(fs *flagSet) func(io.Writer) error {
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		res, err := experiment.Table3Observed(1, o.registry())
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Report().String())
		fmt.Fprintf(stdout, "mean time to crash: %.1f seconds (paper: 80.8)\n", res.MeanTimeToCrash().Seconds())
		return o.finish(1, 1)
	}
}

func cmdSweep(fs *flagSet) func(io.Writer) error {
	s := core.Scenario2
	fs.scenarioVar(&s)
	pattern := fs.String("pattern", "write", "write or read")
	var workers int
	fs.workersVar(&workers, "workers", "parallel workers (0 = one per CPU)")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		p, err := parsePattern(*pattern)
		if err != nil {
			return err
		}
		res, err := attack.Sweeper{Scenario: s, Workers: workers, Metrics: o.registry()}.Run(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sweep of %v (%v): %d points measured\n", s, p, len(res.Points))
		for _, b := range res.Bands {
			fmt.Fprintf(stdout, "  vulnerable band: %v\n", b)
		}
		return o.finish(1, workers)
	}
}

func cmdRange(fs *flagSet) func(io.Writer) error {
	s := core.Scenario2
	fs.scenarioVar(&s)
	freq := fs.Float64("freq", 650, "attack frequency in Hz")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		if err := valid.Positive("-freq", *freq); err != nil {
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
		fmt.Fprint(stdout, tb.String())
		if d, ok := attack.MaxEffectiveDistance(rows, 0.05); ok {
			fmt.Fprintf(stdout, "maximum effective distance (≥5%% write loss): %v\n", d)
		}
		return o.finish(1, 1)
	}
}

func cmdCrash(fs *flagSet) func(io.Writer) error {
	target := fs.String("target", "ext4", "ext4, ubuntu, or rocksdb")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		out, err := attack.ProlongedAttack{Metrics: o.registry()}.Run(attack.CrashTarget(*target))
		if err != nil {
			return err
		}
		if !out.Crashed {
			fmt.Fprintf(stdout, "%s survived the attack window\n", out.Target)
			return o.finish(1, 1)
		}
		fmt.Fprintf(stdout, "%s crashed after %.1f seconds\n", out.Target, out.TimeToCrash.Seconds())
		fmt.Fprintf(stdout, "error output: %s\n", out.ErrorOutput)
		return o.finish(1, 1)
	}
}

func cmdDefense(fs *flagSet) func(io.Writer) error {
	s := core.Scenario2
	fs.scenarioVar(&s)
	distance := fs.Float64("distance", 1, "speaker distance in cm")
	return func(stdout io.Writer) error {
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
		fmt.Fprint(stdout, out.String())
		return nil
	}
}

func cmdDeploy(fs *flagSet) func(io.Writer) error {
	s := core.Scenario2
	fs.scenarioVar(&s)
	distance := fs.Float64("distance", 20, "speaker distance in cm")
	waterTemp := fs.Float64("watertemp", 12, "sea temperature in °C")
	load := fs.Float64("load", 22.7, "sustained drive load in MB/s")
	return func(stdout io.Writer) error {
		// The water model's temperature domain is [-2, 40] °C.
		if err := valid.In("-watertemp", *waterTemp, -2, 40); err != nil {
			return err
		}
		if err := valid.AtLeast("-load", *load, 0); err != nil {
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
		fmt.Fprint(stdout, out.String())
		return nil
	}
}

func cmdSection5(fs *flagSet) func(io.Writer) error {
	freq := fs.Float64("freq", 650, "attack frequency in Hz")
	return func(stdout io.Writer) error {
		if err := valid.Positive("-freq", *freq); err != nil {
			return err
		}
		rows, err := experiment.Section5Ranges(units.Frequency(*freq))
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiment.Section5Report(rows).String())
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, experiment.Section5SoundSpeedReport(experiment.Section5SoundSpeed()).String())
		return nil
	}
}

func cmdNatick(fs *flagSet) func(io.Writer) error {
	return func(stdout io.Writer) error {
		rows, err := experiment.NatickAnalysis()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiment.NatickReport(rows).String())
		return nil
	}
}

func cmdOutage(fs *flagSet) func(io.Writer) error {
	spec := experiment.DefaultControlledOutage()
	fs.Float64Var((*float64)(&spec.Freq), "freq", float64(spec.Freq), "attack frequency in Hz")
	fs.durationVar(&spec.During, "during", "attack window in virtual `seconds`")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		spec.Metrics = o.registry()
		res, err := spec.Run()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Chart().String())
		fmt.Fprintf(stdout, "phase means: before %.1f MB/s, during %.1f MB/s, after %.1f MB/s\n",
			res.BeforeMBps, res.DuringMBps, res.AfterMBps)
		return o.finish(1, 1)
	}
}

func cmdRemoteSweep(fs *flagSet) func(io.Writer) error {
	s := core.Scenario2
	fs.scenarioVar(&s)
	return func(stdout io.Writer) error {
		res, err := attack.RemoteSweeper{Scenario: s}.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "remote reconnaissance against %v (latency-only observations)\n", s)
		fmt.Fprintf(stdout, "healthy baseline: %.2f ms median PUT\n", res.Baseline.Seconds()*1000)
		for _, b := range res.InferredBands {
			fmt.Fprintf(stdout, "inferred vulnerable band: %v\n", b)
		}
		flagged := 0
		for _, p := range res.Probes {
			if p.Suspicious(res.Baseline) {
				flagged++
			}
		}
		fmt.Fprintf(stdout, "%d/%d probed frequencies flagged\n", flagged, len(res.Probes))
		return nil
	}
}

func cmdStealth(fs *flagSet) func(io.Writer) error {
	spec := campaign.DefaultStealth()
	fs.durationVar(&spec.Duty.On, "on", "attack burst length in `seconds`")
	fs.durationVar(&spec.Duty.Off, "off", "quiet gap in `seconds` (0 = continuous)")
	fs.durationVar(&spec.Duration, "duration", "campaign length in virtual `seconds`")
	return func(stdout io.Writer) error {
		res, err := spec.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "duty cycle: %.0f%% on-air (%gs on / %gs off)\n",
			res.Spec.Duty.Fraction()*100, spec.Duty.On.Seconds(), spec.Duty.Off.Seconds())
		fmt.Fprintf(stdout, "victim throughput: %.1f -> %.1f MB/s (%.0f%% loss)\n",
			res.BaselineMBps, res.CampaignMBps, res.LossFraction*100)
		fmt.Fprintf(stdout, "victim detector: %d alarms, max suspicion %.2f\n", res.Alarms, res.MaxSuspicion)
		return nil
	}
}

func cmdStealthGrid(fs *flagSet) func(io.Writer) error {
	grid := campaign.DefaultGrid()
	fs.durationVar(&grid.Base.Duration, "duration", "campaign length per cell in virtual `seconds`")
	fs.Int64Var(&grid.Base.Seed, "seed", grid.Base.Seed, "base seed")
	fs.workersVar(&grid.Workers, "workers", "parallel workers (0 = one per CPU)")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		grid.Metrics = o.registry()
		rows, err := grid.Run()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, campaign.GridReport(rows).String())
		return o.finish(grid.Base.Seed, grid.Workers)
	}
}

func cmdAblation(fs *flagSet) func(io.Writer) error {
	var workers int
	fs.workersVar(&workers, "workers", "parallel workers (0 = one per CPU)")
	return func(stdout io.Writer) error {
		rows, err := experiment.AblationWorkers(1, workers)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiment.AblationReport(rows).String())
		return nil
	}
}

func cmdResilience(fs *flagSet) func(io.Writer) error {
	spec := experiment.DefaultResilience()
	fs.durationVar(&spec.Attack, "attack", "attack window in virtual `seconds`")
	fs.durationVar(&spec.Cooldown, "cooldown", "post-attack recovery window in virtual `seconds`")
	fs.workersVar(&spec.Workers, "workers", "parallel workers (0 = one per CPU)")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		spec.Metrics = o.registry()
		rows, err := spec.Run()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiment.ResilienceReport(rows).String())
		fmt.Fprintln(stdout, "the bare stack reproduces the paper's crash and stays down; the watchdog")
		fmt.Fprintln(stdout, "stack recovers once the tone stops (journal replay, fsck, WAL recovery);")
		fmt.Fprintln(stdout, "the hardened stack additionally masks the injected pre-attack fault burst.")
		return o.finish(1, spec.Workers)
	}
}

func cmdUltrasonic(fs *flagSet) func(io.Writer) error {
	s := core.Scenario2
	fs.scenarioVar(&s)
	return func(stdout io.Writer) error {
		rows, err := experiment.Ultrasonic(s)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, experiment.UltrasonicReport(s, rows).String())
		fmt.Fprintln(stdout, "conclusion: the enclosure wall attenuates ultrasonic content below the")
		fmt.Fprintln(stdout, "shock-sensor threshold — the in-air head-parking vector does not survive")
		fmt.Fprintln(stdout, "the underwater path, consistent with the paper's sweep observations.")
		return nil
	}
}

func cmdAdaptive(fs *flagSet) func(io.Writer) error {
	s := core.Scenario2
	fs.scenarioVar(&s)
	budget := fs.Int("budget", 25, "probe budget")
	return func(stdout io.Writer) error {
		if err := valid.AtLeast("-budget", *budget, 1); err != nil {
			return err
		}
		res, err := attack.Adaptive{Scenario: s, Budget: *budget}.Run()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "baseline: %.1f MB/s\n", res.Baseline)
		fmt.Fprintf(stdout, "best tone: %v (%.0f%% throughput loss) after %d probes\n",
			res.Best.Freq, res.Best.Degradation*100, len(res.Probes))
		return nil
	}
}

func cmdIntegrity(fs *flagSet) func(io.Writer) error {
	spec := experiment.DefaultIntegrity()
	distance := fs.Float64("distance", spec.Distance.Centimeters(), "speaker distance in cm (the marginal zone)")
	fs.Float64Var(&spec.CorruptionProb, "prob", spec.CorruptionProb, "per-marginal-write squeeze probability")
	return func(stdout io.Writer) error {
		spec.Distance = units.Distance(*distance) * units.Centimeter
		res, err := spec.Run()
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Report().String())
		fmt.Fprintln(stdout, "note: the attack phase completed with few or no visible failures —")
		fmt.Fprintln(stdout, "availability monitoring alone would not notice this attack.")
		return nil
	}
}

func cmdAll(fs *flagSet) func(io.Writer) error {
	return func(stdout io.Writer) error {
		for _, step := range []struct {
			title string
			cmd   command
			args  []string
		}{
			{"=== Figure 2(a): sequential write ===", command{name: "figure2", define: cmdFigure2}, []string{"-pattern", "write"}},
			{"\n=== Figure 2(b): sequential read ===", command{name: "figure2", define: cmdFigure2}, []string{"-pattern", "read"}},
			{"\n=== Table 1 ===", command{name: "table1", define: cmdTable1}, nil},
			{"\n=== Table 2 ===", command{name: "table2", define: cmdTable2}, nil},
			{"\n=== Table 3 ===", command{name: "table3", define: cmdTable3}, nil},
			{"\n=== Defense suite ===", command{name: "defense", define: cmdDefense}, nil},
			{"\n=== Section 5: effective range ===", command{name: "section5", define: cmdSection5}, nil},
			{"\n=== Enclosure hardening (Natick-class) ===", command{name: "natick", define: cmdNatick}, nil},
		} {
			fmt.Fprintln(stdout, step.title)
			if err := invoke(step.cmd, step.args, stdout, fs.Output()); err != nil {
				return err
			}
		}
		return nil
	}
}

func printTable(w io.Writer, t *report.Table, csv bool) {
	if csv {
		fmt.Fprint(w, t.CSV())
		return
	}
	fmt.Fprint(w, t.String())
}

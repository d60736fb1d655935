package main

// Directions a metric can have. An exact metric is a simulated quantity:
// any change at all counts as worse.
const (
	lower  = "lower"
	higher = "higher"
	exact  = "exact"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // relative regression bound
	Floor  float64 `json:"floor,omitempty"` // absolute floor on the bound, in Unit
	// Line marks the end-to-end metrics every workload reports; they make
	// up the result line of an untraced run.
	Line bool `json:"-"`
}

// endToEnd are the metrics of the untraced runs. Host times are in
// reference seconds (see refNominal) and carry a bound, as do the memory
// metrics; simulated ones are exact. The measured seconds and the
// calibration time are reported for reading, without a bound. Each
// workload reports the ones its results define.
//
// The host-time bound is 20%. On shared 2-vCPU VMs the per-run wall_s
// medians of ten seeds spread by up to 11.4% when each rep was scaled by
// the kernel before it alone, so a 10% bound did not hold. Scaled by the
// kernels on both sides, they spread by 3–7% in quiet hours and by up to
// 12.5% in busy ones (README.md, "Steadiness"). setup_s has the largest
// bound: two workloads have nothing to set up, and a set-up of tens of
// nanoseconds spreads by up to 19% from run to run. Its 5 ms floor
// dominates the bound on every workload.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.20, Floor: 0.005, Line: true},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Floor: 0.005, Line: true},
	{Name: "alloc_mb", Unit: "MB", Better: lower, Bound: 0.10, Line: true},
	{Name: "live_heap_mb", Unit: "MB", Better: lower, Bound: 0.10, Line: true},
	{Name: "shard_ops_per_s", Unit: "1/s", Better: higher, Bound: 0.20},
	{Name: "wall_measured_s", Unit: "s", Better: lower},
	{Name: "setup_measured_s", Unit: "s", Better: lower},
	{Name: "ref_s", Unit: "s", Better: lower},
	{Name: "fail_frac", Unit: "frac", Better: exact},
	{Name: "fig2_min_write_mbps", Unit: "MB/s", Better: exact},
	{Name: "crash_ext4_sim_s", Unit: "s", Better: exact},
	{Name: "get_availability", Unit: "frac", Better: exact},
	{Name: "put_availability", Unit: "frac", Better: exact},
	{Name: "p99_sim_s", Unit: "s", Better: exact},
	{Name: "fleet_get_availability", Unit: "frac", Better: exact},
	{Name: "exfil_goodput_bps", Unit: "b/s", Better: exact},
	{Name: "benign_false_positives", Unit: "count", Better: exact},
	{Name: "detect_latency_sim_s", Unit: "s", Better: exact},
}

// layerPackages are the repository's internal packages; the profile
// charges CPU time to each of them.
var layerPackages = []string{
	"acoustics", "attack", "blockdev", "campaign", "cluster", "core", "defense",
	"detect", "dsp", "enclosure", "exfil", "experiment", "faultinj", "fio",
	"fleet", "gf", "hdd", "jfs", "kvdb", "metrics", "netstore", "oracle",
	"osmodel", "parallel", "raid", "report", "sched", "sig", "simclock",
	"sonar", "thermal", "trace", "units", "vibration", "water",
}

// perLayer are the metrics of a traced run, in report order: each
// workload's, then the probes'. Every traced run reports all of them; a
// count or span a workload never reaches is 0.
var perLayer = append(append([]metricDef(nil), workloadLayer...), probeLayer...)

// workloadLayer are the per-layer metrics each traced workload reports.
var workloadLayer = func() []metricDef {
	var defs []metricDef
	for _, p := range layerPackages {
		defs = append(defs, metricDef{Name: p + ".cpu_share", Unit: "frac", Better: lower})
	}
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	add("runtime.gc_share", "frac", lower)
	add("bench.attributed_share", "frac", higher)
	add("bench.trace_overhead_frac", "frac", lower)
	add("metrics.overhead_frac", "frac", lower)
	add("metrics.overhead_iqr", "frac", lower)
	add("parallel.speedup_2w", "x", higher)
	for _, s := range spanNames {
		add(s+"_s", "s", lower)
	}
	add("cluster.shard_ops", "count", higher)
	add("cluster.shard_error_frac", "frac", lower)
	add("cluster.degraded_read_frac", "frac", lower)
	add("cluster.steered_get_frac", "frac", higher)
	add("cluster.repair_writes", "count", lower)
	add("fleet.shard_ops", "count", higher)
	add("fleet.cross_site_frac", "frac", lower)
	add("fleet.failover_waves_per_get", "waves/get", lower)
	add("fleet.hedged_frac", "frac", lower)
	add("fleet.fast_fails", "count", lower)
	add("exfil.frames_ok_frac", "frac", higher)
	add("detect.hostile_window_frac", "frac", higher)
	return defs
}()

// probeLayer are the metrics of the layer probes. The probes do not depend
// on the workload, so a traced run measures and reports them once.
var probeLayer = func() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	// A probe reports time and allocations per unit of work.
	probe := func(base, timeUnit, per string) {
		add(base+"_"+timeUnit, timeUnit+"/"+per, lower)
		add(base+"_allocs", "allocs/"+per, lower)
	}
	probe("hdd.access", "ns", "op")
	add("hdd.retries_per_access", "retries/op", lower)
	probe("simclock.now", "ns", "op")
	probe("blockdev.retrier_write", "ns", "op")
	add("blockdev.retries_per_op", "retries/op", lower)
	add("blockdev.error_frac", "frac", lower)
	probe("kvdb.put", "ns", "op")
	probe("kvdb.get", "ns", "op")
	probe("cluster.encode", "ns", "op")
	probe("cluster.reconstruct", "ns", "op")
	probe("sched.push_pop", "ns", "op")
	probe("sonar.locate", "us", "op")
	probe("dsp.bank_push", "ns", "op")
	probe("detect.feed", "us", "op")
	probe("detect.observe", "ns", "op")
	probe("exfil.render", "ms", "frame")
	probe("exfil.demodulate", "ms", "frame")
	probe("sig.render", "ns", "sample")
	probe("metrics.observe", "ns", "op")
	return defs
}()

// spanNames are the spans a traced rep records around the calls it makes
// into the layers; each becomes a per-layer "<name>_s" metric, the mean
// seconds per rep.
var spanNames = []string{
	"experiment.figure2", "experiment.table2", "experiment.table3",
	"experiment.fingerprint", "experiment.exfil",
	"cluster.preload", "cluster.serve", "fleet.preload", "fleet.serve",
	"sonar.detect_schedule",
}

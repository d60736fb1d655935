// Command bench measures deepnote end to end and layer by layer.
//
// An untimed warm-up rep is followed by timed reps of fixed size until the
// measured time is up; each metric is reported as the median, quartiles
// and sample count over the reps. -trace runs the per-layer measurement
// instead: traced and CPU-profiled reps, the metrics-overhead pairs, the
// 2-worker scaling rows and the layer probes. -compare judges one saved
// report against another. README.md documents every workload and metric.
//
// The last line a run prints is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 0 only when every rep
// of every workload passed its checks.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"deepnote/internal/metrics"
)

// Host-side load shape: one caller makes one call at a time, engines run
// one worker, and the collector shares the caller's core.
//
// GOMAXPROCS is 1 so that a rep and the calibration kernels around it run
// on the same core. On a shared VM each vCPU's speed drifts on its own
// (the two vCPUs of the machine the bounds were set on correlate at about
// 0.2). With the collector on the second vCPU, a rep's time followed the
// kernel's with an elasticity of 0.3, and the kernel could not cancel the
// drift; on one core the elasticity is 0.9–1.0. The scaling rows raise
// GOMAXPROCS to 2 for their pairs.
const (
	gomaxprocs = 1
	minReps    = 3 // timed reps even when the time is up sooner
	// setupTarget is the least time the timed batch of set-ups in a rep
	// lasts (see timeSetup).
	setupTarget = time.Millisecond
	// overheadPairs and scalingPairs are the alternating pairs of a traced
	// run: with and without a metrics registry, and at 1 and 2 workers.
	overheadPairs = 5
	scalingPairs  = 2
)

// pinnedJSON maps each workload to the digest of its results at seed 1.
//
//go:embed digests.json
var pinnedJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(gomaxprocs)
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "seed of every workload input")
	names := fs.String("workload", "all", "comma-separated workload names, or all")
	seconds := fs.Int("seconds", 30, "measured seconds per workload")
	traced := fs.Bool("trace", false, "measure the per-layer metrics instead (also -trace 0|1)")
	jsonPath := fs.String("json", "", "also write the full report, samples included, to this file")
	compare := fs.String("compare", "", "judge the report named by the argument against this one; runs nothing")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare takes two reports: -compare a.json b.json")
			return 2
		}
		return runCompare(*compare, fs.Arg(0), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; -seconds must be at least 1")
		return 2
	}
	var ws []workload
	for _, name := range strings.Split(*names, ",") {
		if name == "all" {
			ws = append(ws, workloads...)
			continue
		}
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		ws = append(ws, w)
	}
	pins := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		fmt.Fprintf(stderr, "bench: digests.json: %v\n", err)
		return 1
	}

	out := report{
		Schema: "deepnote-bench/v2", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: gomaxprocs, Seed: *seed, Seconds: *seconds, Trace: *traced,
	}
	fmt.Fprintf(stdout, "deepnote bench: seed %d, %d s per workload, trace %v, GOMAXPROCS %d of %d CPUs, %s\n",
		*seed, *seconds, *traced, gomaxprocs, runtime.NumCPU(), runtime.Version())
	for _, w := range ws {
		m := measurer{w: w, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
		if *seed == 1 {
			m.pin = pins[w.name]
		}
		var wr workloadReport
		if *traced {
			wr = m.traced()
		} else {
			wr = m.untraced()
		}
		printWorkload(stdout, wr)
		out.Workloads = append(out.Workloads, wr)
	}
	if *traced {
		out.Probes = runProbes(*seed)
		printWorkload(stdout, *out.Probes)
	}
	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, out); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(out.resultLine())
	if err != nil {
		fmt.Fprintf(stderr, "bench: result line: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.correct() {
		return 1
	}
	return 0
}

// normalizeArgs lets -trace take its value as a separate 0 or 1 argument
// (-trace 1) besides the usual boolean forms (-trace, -trace=false).
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// report is the full output of one invocation, as -json writes it.
type report struct {
	Schema     string           `json:"schema"`
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	Trace      bool             `json:"trace"`
	Workloads  []workloadReport `json:"workloads"`
	// Probes holds the layer probes of a traced run, measured once for
	// all its workloads.
	Probes *workloadReport `json:"probes,omitempty"`
}

type workloadReport struct {
	Name      string         `json:"name"`
	Digest    string         `json:"digest"`
	Pinned    bool           `json:"pinned"` // the digest was checked against the seed-1 pin
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Errors    []string       `json:"errors,omitempty"`
	Metrics   []metricReport `json:"metrics"`
	Spans     []span         `json:"spans,omitempty"`
}

type metricReport struct {
	metricDef
	summary
}

func (r report) correct() bool {
	for _, w := range r.sections() {
		if w.Failed > 0 || len(w.Errors) > 0 || len(w.Metrics) == 0 {
			return false
		}
	}
	return true
}

// sections are the workload reports followed by the probes, if any.
func (r report) sections() []workloadReport {
	if r.Probes == nil {
		return r.Workloads
	}
	return append(append([]workloadReport(nil), r.Workloads...), *r.Probes)
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the closing JSON line: the untraced line metrics, or every
// per-layer metric of a traced run, by median. With several workloads each
// workload's names are prefixed by the workload and a slash; the probes'
// names never are.
func (r report) resultLine() any {
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{Correct: r.correct(), Metrics: map[string]lineMetric{}}
	for i, w := range r.sections() {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		for _, m := range w.Metrics {
			if !r.Trace && !m.Line {
				continue
			}
			name := m.Name
			if len(r.Workloads) > 1 && i < len(r.Workloads) {
				name = w.Name + "/" + name
			}
			line.Metrics[name] = lineMetric{Value: m.Median, Unit: m.Unit}
		}
	}
	return line
}

// rep is one measured rep.
type rep struct {
	setup, wall     float64 // seconds
	allocMB, liveMB float64
	digest          string
	served
}

// runRep runs one rep: set-up, then the timed serve, then the memory
// readings and the digest. A non-nil prof receives a CPU profile of the
// set-up and serve.
func runRep(w workload, e env, prof io.Writer) (rep, error) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return rep{}, err
		}
	}
	e.tr.begin("bench.setup")
	serve, setup, calls, err := timeSetup(w, e)
	e.tr.end()
	// Only the last set-up's allocations belong to the rep; every set-up
	// of a workload allocates the same.
	runtime.ReadMemStats(&after)
	setupBytes := after.TotalAlloc - before.TotalAlloc
	discarded := setupBytes - setupBytes/uint64(max(calls, 1))
	var s served
	t1 := time.Now()
	if err == nil {
		e.tr.begin("bench.serve")
		s, err = serve()
		e.tr.end()
	}
	t2 := time.Now()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return rep{}, err
	}
	runtime.ReadMemStats(&after)
	r := rep{
		setup:   setup,
		wall:    t2.Sub(t1).Seconds(),
		allocMB: float64(after.TotalAlloc-before.TotalAlloc-discarded) / 1e6,
		served:  s,
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	r.liveMB = float64(after.HeapAlloc) / 1e6
	runtime.KeepAlive(r.engines) // the live heap counts the engines and results
	r.digest, err = digest(r.results)
	r.engines, r.results = nil, nil
	return r, err
}

// timeSetup runs the workload's set-up in doubling batches until one batch
// lasts setupTarget, as the probes time a call, and returns the last
// set-up's serve, the seconds per set-up of the last batch and the number
// of set-ups run. The facility set-ups outlast the target and run once. A
// set-up that builds nothing lasts a fraction of a microsecond: timed
// once, it read mostly the allocator's state after the rep's GC and
// spread by 35% from run to run.
func timeSetup(w workload, e env) (serve func() (served, error), secs float64, calls int, err error) {
	for n := 1; ; n *= 2 {
		start := time.Now()
		for i := 0; i < n; i++ {
			if serve, err = w.setup(e); err != nil {
				return nil, 0, calls, err
			}
			calls++
		}
		if d := time.Since(start); d >= setupTarget {
			return serve, d.Seconds() / float64(n), calls, nil
		}
	}
}

// digest is the SHA-256 of the canonical JSON of a rep's results.
func digest(results any) (string, error) {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(results); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// measurer runs one workload and checks every rep.
type measurer struct {
	w       workload
	seed    int64
	seconds time.Duration
	pin     string // expected digest; empty unless seed is 1
	want    string // digest every rep must produce
	wr      workloadReport
}

// warmUp runs the untimed first rep and settles the digest every later rep
// must match: the pin at seed 1, otherwise the warm-up's own.
func (m *measurer) warmUp() bool {
	m.wr = workloadReport{Name: m.w.name}
	r, err := runRep(m.w, env{seed: m.seed, workers: 1}, nil)
	if err != nil {
		m.wr.Errors = append(m.wr.Errors, fmt.Sprintf("warm-up: %v", err))
		return false
	}
	m.wr.Digest, m.want = r.digest, r.digest
	if m.seed == 1 {
		if m.pin == "" {
			m.wr.Errors = append(m.wr.Errors, "no pinned seed-1 digest in digests.json")
			return false
		}
		m.want, m.wr.Pinned = m.pin, true
	}
	return m.check(r, nil)
}

// check counts one rep and reports whether it passed: no error, no
// corrupt read, and the expected digest.
func (m *measurer) check(r rep, err error) bool {
	m.wr.Attempted++
	switch {
	case err != nil:
	case r.corrupt > 0:
		err = fmt.Errorf("%d corrupt reads", r.corrupt)
	case r.digest != m.want:
		err = fmt.Errorf("digest %s, want %s", r.digest, m.want)
	default:
		return true
	}
	m.wr.Failed++
	m.wr.Errors = append(m.wr.Errors, err.Error())
	return false
}

// timed runs one checked rep. An instrumented rep's digest is not
// compared: some results embed their spec, registry included.
func (m *measurer) timed(e env, prof io.Writer) (rep, bool) {
	r, err := runRep(m.w, e, prof)
	if e.reg != nil && err == nil {
		r.digest = m.want
	}
	return r, m.check(r, err)
}

func (m *measurer) untraced() workloadReport {
	start := time.Now()
	if !m.warmUp() {
		return m.wr
	}
	values := map[string][]float64{}
	add := func(name string, v float64) { values[name] = append(values[name], v) }
	// The kernel runs between reps on the same core, so each rep has one
	// just before and one just after it: the speed they cancel changes
	// within seconds. The set-up, a few ms at most, is scaled by the kernel
	// before it; the serve by the geometric mean of the two.
	pre := calibrate()
	add("ref_s", pre)
	// A rep starts only when one as long as the last still ends within the
	// measured time, so a run, warm-up included, lasts about m.seconds.
	for n, last := 0, time.Duration(0); n < minReps || time.Since(start)+last <= m.seconds; n++ {
		t := time.Now()
		r, ok := m.timed(env{seed: m.seed, workers: 1}, nil)
		post := calibrate()
		last = time.Since(t)
		add("ref_s", post)
		setupScale, serveScale := refNominal/pre, refNominal/math.Sqrt(pre*post)
		pre = post
		if !ok {
			continue
		}
		add("wall_s", r.wall*serveScale)
		add("setup_s", r.setup*setupScale)
		if r.shardOps > 0 {
			add("shard_ops_per_s", float64(r.shardOps)/(r.wall*serveScale))
		}
		add("wall_measured_s", r.wall)
		add("setup_measured_s", r.setup)
		add("alloc_mb", r.allocMB)
		add("live_heap_mb", r.liveMB)
		for k, v := range r.sim {
			add(k, v)
		}
	}
	add("fail_frac", ratio(m.wr.Failed, m.wr.Attempted))
	for _, d := range endToEnd {
		if xs, ok := values[d.Name]; ok {
			m.wr.Metrics = append(m.wr.Metrics, metricReport{d, summarize(xs)})
		}
	}
	return m.wr
}

// traced measures the per-layer metrics: traced reps (spans plus a CPU
// profile), then the metrics-overhead pairs and the scaling rows. The
// traced reps, at least two, fill the measured time the pairs leave, so
// for reps short enough a run lasts about m.seconds.
func (m *measurer) traced() workloadReport {
	start := time.Now()
	if !m.warmUp() {
		return m.wr
	}
	warm := time.Since(start)
	pairs := time.Duration(2*(overheadPairs+scalingPairs)) * warm
	values := map[string][]float64{}
	add := func(name string, v float64) { values[name] = append(values[name], v) }
	plainEnv := env{seed: m.seed, workers: 1}

	tr := newTracer()
	var lt layerTime
	var traced []float64
	for ; tr.rep < 2 || time.Since(start)+warm+pairs <= m.seconds; tr.rep++ {
		var buf bytes.Buffer
		r, ok := m.timed(env{seed: m.seed, workers: 1, tr: tr}, &buf)
		if !ok {
			continue
		}
		traced = append(traced, r.setup+r.wall)
		// Every passing rep has the same results, so any one gives the
		// counts.
		for k, v := range r.layer {
			values[k] = []float64{v}
		}
		p, err := parseProfile(buf.Bytes())
		if err != nil {
			m.wr.Errors = append(m.wr.Errors, err.Error())
			return m.wr
		}
		p.attribute(&lt)
	}
	m.wr.Spans = tr.spans
	if lt.total == 0 {
		m.wr.Errors = append(m.wr.Errors, "the CPU profile holds no samples")
		return m.wr
	}
	attributed := lt.gc
	for _, v := range lt.pkg {
		attributed += v
	}
	for _, p := range layerPackages {
		add(p+".cpu_share", float64(lt.pkg[p])/float64(lt.total))
	}
	add("runtime.gc_share", float64(lt.gc)/float64(lt.total))
	add("bench.attributed_share", float64(attributed)/float64(lt.total))
	secs := spanSeconds(tr.spans, len(traced))
	for _, n := range spanNames {
		add(n+"_s", secs[n])
	}

	// The bare side of each pair is also the untraced rep the traced reps
	// are measured against.
	var plain []float64
	for i := 0; i < overheadPairs; i++ {
		var bare, instr rep
		var ok1, ok2 bool
		alternate(i,
			func() { bare, ok1 = m.timed(plainEnv, nil) },
			func() { instr, ok2 = m.timed(env{seed: m.seed, workers: 1, reg: metrics.NewRegistry()}, nil) })
		if ok1 {
			plain = append(plain, bare.setup+bare.wall)
		}
		if ok1 && ok2 {
			add("metrics.overhead_frac", (instr.setup+instr.wall)/(bare.setup+bare.wall)-1)
		}
	}
	if len(plain) > 0 {
		add("bench.trace_overhead_frac", median(traced)/median(plain)-1)
	}
	q1, q3 := quartiles(values["metrics.overhead_frac"])
	add("metrics.overhead_iqr", q3-q1)

	// Both sides of a scaling pair get two cores, so the pair isolates
	// the engines' worker fan-out.
	runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(gomaxprocs)
	var one, two []float64
	for i := 0; i < scalingPairs; i++ {
		alternate(i,
			func() {
				if r, ok := m.timed(plainEnv, nil); ok {
					one = append(one, r.setup+r.wall)
				}
			},
			func() {
				if r, ok := m.timed(env{seed: m.seed, workers: 2}, nil); ok {
					two = append(two, r.setup+r.wall)
				}
			})
	}
	add("parallel.speedup_2w", median(one)/median(two))

	for _, d := range workloadLayer {
		xs := values[d.Name]
		if xs == nil {
			xs = []float64{0}
		}
		m.wr.Metrics = append(m.wr.Metrics, metricReport{d, summarize(xs)})
	}
	return m.wr
}

// runProbes measures the layer probes once, as the report section named
// "probes".
func runProbes(seed int64) *workloadReport {
	wr := &workloadReport{Name: "probes", Attempted: 1}
	pr, err := probes(seed)
	if err != nil {
		wr.Failed = 1
		wr.Errors = append(wr.Errors, err.Error())
		return wr
	}
	for _, d := range probeLayer {
		wr.Metrics = append(wr.Metrics, metricReport{d, summarize([]float64{pr[d.Name]})})
	}
	return wr
}

// alternate runs a then b for even i and b then a for odd i, so a drift
// in machine speed does not favor one side of a pair.
func alternate(i int, a, b func()) {
	if i%2 == 1 {
		a, b = b, a
	}
	a()
	b()
}

func printWorkload(w io.Writer, wr workloadReport) {
	status := ""
	if wr.Digest != "" {
		status = "; digest " + wr.Digest
	}
	if wr.Pinned {
		status += " (seed-1 pin checked)"
	}
	fmt.Fprintf(w, "\n== %s: %d reps, %d failed%s\n", wr.Name, wr.Attempted, wr.Failed, status)
	for _, e := range wr.Errors {
		fmt.Fprintf(w, "   FAIL %s\n", e)
	}
	if len(wr.Metrics) == 0 {
		return
	}
	fmt.Fprintf(w, "   %-34s %-10s %14s %14s %14s %4s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range wr.Metrics {
		fmt.Fprintf(w, "   %-34s %-10s %14.6g %14.6g %14.6g %4d\n", m.Name, m.Unit, m.Median, m.Q1, m.Q3, m.N)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != "deepnote-bench/v2" {
		return r, fmt.Errorf("%s: schema %q is not deepnote-bench/v2", path, r.Schema)
	}
	return r, nil
}

// runCompare prints a verdict for every end-to-end (metric, workload) pair
// the two reports share, and exits 1 when any is worse.
func runCompare(aPath, bPath string, stdout, stderr io.Writer) int {
	a, errA := readReport(aPath)
	b, errB := readReport(bPath)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	worseCount := 0
	fmt.Fprintf(stdout, "%-14s %-24s %-11s %14s %14s\n", "workload", "metric", "verdict", "a median", "b median")
	for _, wa := range a.Workloads {
		for _, wb := range b.Workloads {
			if wa.Name != wb.Name {
				continue
			}
			for _, ma := range wa.Metrics {
				if ma.Bound == 0 && ma.Better != exact {
					continue // per-layer metrics carry no bound
				}
				for _, mb := range wb.Metrics {
					if mb.Name != ma.Name {
						continue
					}
					v := judge(ma.metricDef, ma.summary, mb.summary)
					if v == worse {
						worseCount++
					}
					fmt.Fprintf(stdout, "%-14s %-24s %-11s %14.6g %14.6g\n", wa.Name, ma.Name, v, ma.Median, mb.Median)
				}
			}
		}
	}
	if worseCount > 0 {
		fmt.Fprintf(stdout, "%d worse\n", worseCount)
		return 1
	}
	return 0
}

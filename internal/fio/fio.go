// Package fio is a Flexible-I/O-Tester workalike for the simulated block
// device: it runs the paper's measurement workloads (sequential read and
// sequential write at 4 KB granularity) and reports throughput, latency, and
// IOPS the way the paper's Tables 1 and Figure 2 do, including the
// "no response" condition when the device stops completing requests.
package fio

import (
	"fmt"
	"math/rand"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

// Pattern is the access pattern of a job.
type Pattern int

// Supported patterns.
const (
	SeqRead Pattern = iota
	SeqWrite
	RandRead
	RandWrite
)

// String names the pattern using fio's vocabulary.
func (p Pattern) String() string {
	switch p {
	case SeqRead:
		return "read"
	case SeqWrite:
		return "write"
	case RandRead:
		return "randread"
	case RandWrite:
		return "randwrite"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// IsWrite reports whether the pattern issues writes.
func (p Pattern) IsWrite() bool { return p == SeqWrite || p == RandWrite }

// IsRandom reports whether the pattern randomizes offsets.
func (p Pattern) IsRandom() bool { return p == RandRead || p == RandWrite }

// Job describes one fio-style workload.
type Job struct {
	// Name labels the job in reports.
	Name string
	// Pattern selects the access pattern.
	Pattern Pattern
	// BlockSize is the per-request size in bytes (the paper uses 4 KB).
	BlockSize int
	// Span is the device region the job covers, starting at Offset.
	Offset, Span int64
	// Runtime bounds the job in virtual time.
	Runtime time.Duration
	// Seed drives the random pattern generator.
	Seed int64
}

// PaperJob returns the paper's measurement job: sequential 4 KB over a
// 1 GiB span for the given virtual runtime.
func PaperJob(p Pattern, runtime time.Duration) Job {
	return Job{
		Name:      p.String(),
		Pattern:   p,
		BlockSize: 4096,
		Span:      1 << 30,
		Runtime:   runtime,
		Seed:      1,
	}
}

// Validate reports whether the job is well-formed for a device of the given
// size.
func (j Job) Validate(devSize int64) error {
	if j.BlockSize <= 0 {
		return fmt.Errorf("fio: job %q block size must be positive", j.Name)
	}
	if j.Span < int64(j.BlockSize) {
		return fmt.Errorf("fio: job %q span %d below block size %d", j.Name, j.Span, j.BlockSize)
	}
	if j.Offset < 0 || j.Offset+j.Span > devSize {
		return fmt.Errorf("fio: job %q region [%d, %d) outside device of %d", j.Name, j.Offset, j.Offset+j.Span, devSize)
	}
	if j.Runtime <= 0 {
		return fmt.Errorf("fio: job %q runtime must be positive", j.Name)
	}
	return nil
}

// Result is the job's measurement outcome.
type Result struct {
	// Job echoes the job definition.
	Job Job
	// Ops and Errors count completed and failed requests.
	Ops, Errors int
	// Bytes is the total payload moved by completed requests.
	Bytes int64
	// Elapsed is the virtual time consumed.
	Elapsed time.Duration
	// Latencies summarizes completed-request service times.
	Latencies LatencySummary
	// ErrorLatencies summarizes the service times of failed requests.
	// Failed I/Os consume virtual time (retry storms are the attack's
	// signature), so dropping them would hide exactly the delays the
	// attack induces.
	ErrorLatencies LatencySummary
	// NoResponse is set when the device completed no requests at all —
	// the paper's "-" entries in Table 1.
	NoResponse bool
}

// ThroughputMBps returns payload throughput in MB/s (decimal megabytes,
// matching the paper's units).
func (r Result) ThroughputMBps() float64 {
	secs := r.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / secs
}

// IOPS returns completed requests per second.
func (r Result) IOPS() float64 {
	secs := r.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Ops) / secs
}

// LatencySummary aggregates per-request latencies.
type LatencySummary struct {
	// Count is the number of samples.
	Count int
	// Mean, P50, P99, and Max summarize the distribution.
	Mean, P50, P99, Max time.Duration
}

// summarize sorts samples in place and summarizes them.
func summarize(samples []time.Duration) LatencySummary {
	if len(samples) == 0 {
		return LatencySummary{}
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	s := LatencySummary{Count: len(samples), Mean: sum / time.Duration(len(samples))}
	s.P50, s.P99, s.Max = metrics.LatencyQuantiles(samples)
	return s
}

// Runner executes jobs against a device on a virtual clock.
type Runner struct {
	dev   blockdev.Device
	clock *simclock.Virtual

	reg *metrics.Registry
	// Pre-resolved histogram handles: the per-op hot path does one
	// atomic bucket increment instead of a registry map lookup.
	latOK, latErr *metrics.Histogram
}

// NewRunner returns a runner bound to a device and clock.
func NewRunner(dev blockdev.Device, clock *simclock.Virtual) *Runner {
	return &Runner{dev: dev, clock: clock}
}

// WithMetrics attaches a registry: per-op latencies stream into
// "fio.lat_ok_ns" / "fio.lat_err_ns" histograms and each Run publishes
// its op/byte/error counters. A nil registry leaves the runner
// uninstrumented; either way the simulation outcome is unchanged, because
// metrics never touch the clock or the workload RNG.
func (r *Runner) WithMetrics(reg *metrics.Registry) *Runner {
	r.reg = reg
	if reg != nil {
		r.latOK = reg.Histogram("fio.lat_ok_ns")
		r.latErr = reg.Histogram("fio.lat_err_ns")
	}
	return r
}

// Run executes the job for its runtime and returns its measurements.
// Failed requests are counted and the runner presses on, like fio with
// continue_on_error.
func (r *Runner) Run(job Job) (Result, error) {
	if err := job.Validate(r.dev.Size()); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(job.Seed))
	buf := make([]byte, job.BlockSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	blocks := job.Span / int64(job.BlockSize)

	res := Result{Job: job}
	var lats, errLats []time.Duration
	start := r.clock.Now()
	var seq int64
	for r.clock.Now().Sub(start) < job.Runtime {
		var block int64
		if job.Pattern.IsRandom() {
			block = rng.Int63n(blocks)
		} else {
			block = seq % blocks
			seq++
		}
		off := job.Offset + block*int64(job.BlockSize)

		write := job.Pattern.IsWrite()
		opStart := r.clock.Now()
		var err error
		if write {
			_, err = r.dev.WriteAt(buf, off)
		} else {
			_, err = r.dev.ReadAt(buf, off)
		}
		lat := r.clock.Now().Sub(opStart)
		if err != nil {
			res.Errors++
			errLats = append(errLats, lat)
			r.latErr.ObserveDuration(lat)
			continue
		}
		res.Ops++
		res.Bytes += int64(job.BlockSize)
		lats = append(lats, lat)
		r.latOK.ObserveDuration(lat)
	}
	res.Elapsed = r.clock.Now().Sub(start)
	res.Latencies = summarize(lats)
	res.ErrorLatencies = summarize(errLats)
	res.NoResponse = res.Ops == 0
	r.publish(res)
	return res, nil
}

// publish pushes one run's totals into the attached registry (no-op
// without one).
func (r *Runner) publish(res Result) {
	if r.reg == nil {
		return
	}
	r.reg.Add("fio.runs", 1)
	r.reg.Add("fio.ops", int64(res.Ops))
	r.reg.Add("fio.errors", int64(res.Errors))
	r.reg.Add("fio.bytes", res.Bytes)
	if res.NoResponse {
		r.reg.Add("fio.no_response_runs", 1)
	}
}

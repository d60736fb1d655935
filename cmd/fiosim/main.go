// Command fiosim is a Flexible-I/O-Tester-style CLI for the simulated
// victim drive: run a workload against a chosen testbed scenario while an
// optional attack tone plays.
//
// Usage:
//
//	fiosim [-pattern read|write|randread|randwrite] [-bs BYTES]
//	       [-runtime SECONDS] [-scenario 1|2|3] [-freq HZ] [-distance CM]
//
// A frequency of 0 disables the attack; a negative or non-finite one is
// rejected, as is a runtime no time.Duration can hold.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds fiosim's flags.
type options struct {
	pattern, image          string
	bs, scenario            int
	runtime, freq, distance float64
	seed                    int64
}

// run parses args, runs the job and returns the exit status: 0 on success
// and for -h, 2 for a usage error, 1 for any other error.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fl := flag.NewFlagSet("fiosim", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.pattern, "pattern", "write", "read, write, randread, or randwrite")
	fl.IntVar(&o.bs, "bs", 4096, "block size in bytes")
	fl.Float64Var(&o.runtime, "runtime", 5, "job runtime in virtual seconds")
	fl.IntVar(&o.scenario, "scenario", 2, "testbed scenario (1-3)")
	fl.Float64Var(&o.freq, "freq", 0, "attack tone frequency in Hz (0 = no attack)")
	fl.Float64Var(&o.distance, "distance", 1, "speaker distance in cm")
	fl.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fl.StringVar(&o.image, "image", "", "optional disk image: loaded if present, saved after the run")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fl.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q\n", fl.Arg(0))
		fl.Usage()
		return 2
	}
	if err := o.run(stdout); err != nil {
		fmt.Fprintf(stderr, "fiosim: %v\n", err)
		return 1
	}
	return 0
}

func (o options) run(stdout io.Writer) error {
	p, ok := map[string]fio.Pattern{"read": fio.SeqRead, "write": fio.SeqWrite, "randread": fio.RandRead, "randwrite": fio.RandWrite}[o.pattern]
	if !ok {
		return fmt.Errorf("unknown pattern %q", o.pattern)
	}
	s, err := core.ParseScenario(o.scenario)
	if err != nil {
		return err
	}
	if err := valid.AtLeast("-freq", o.freq, 0); err != nil {
		return err
	}
	jobRuntime, err := valid.Seconds("-runtime", o.runtime)
	if err != nil {
		return err
	}

	rig, err := core.NewRig(s, units.Distance(o.distance)*units.Centimeter, o.seed)
	if err != nil {
		return err
	}
	if o.image != "" {
		// A path with no file means no image yet; any other error fails, so
		// an image that exists is never overwritten by a run on a fresh disk.
		f, err := os.Open(o.image)
		switch {
		case err == nil:
			err = errors.Join(rig.Disk.LoadImage(f), f.Close())
		case errors.Is(err, os.ErrNotExist):
			err = nil
		}
		if err != nil {
			return fmt.Errorf("loading image: %w", err)
		}
	}
	if o.freq > 0 {
		tone := sig.NewTone(units.Frequency(o.freq))
		rig.ApplyTone(tone)
		fmt.Fprintf(stdout, "attack: %v tone, incident %v at %v, %v\n",
			tone.Freq, rig.Testbed.IncidentSPL(tone), rig.Testbed.Chain.Path.Distance, s)
	}

	job := fio.Job{
		Name:      o.pattern,
		Pattern:   p,
		BlockSize: o.bs,
		Span:      1 << 30,
		Runtime:   jobRuntime,
		Seed:      o.seed,
	}
	res, err := fio.NewRunner(rig.Disk, rig.Clock).Run(job)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s: bs=%d span=1GiB runtime=%.1fs (virtual)\n", job.Name, job.BlockSize, job.Runtime.Seconds())
	if res.NoResponse {
		fmt.Fprintln(stdout, "  NO RESPONSE: the device completed zero requests")
		fmt.Fprintf(stdout, "  errors=%d\n", res.Errors)
	} else {
		fmt.Fprintf(stdout, "  throughput: %.1f MB/s (%.0f IOPS)\n", res.ThroughputMBps(), res.IOPS())
		fmt.Fprintf(stdout, "  latency: mean=%.2fms p50=%.2fms p99=%.2fms max=%.2fms\n",
			ms(res.Latencies.Mean), ms(res.Latencies.P50), ms(res.Latencies.P99), ms(res.Latencies.Max))
		fmt.Fprintf(stdout, "  ops=%d errors=%d bytes=%d\n", res.Ops, res.Errors, res.Bytes)
	}
	if o.image == "" {
		return nil
	}
	// The image is saved last, so a job that fails saves none.
	f, err := os.Create(o.image)
	if err == nil {
		err = errors.Join(rig.Disk.SaveImage(f), f.Close())
	}
	if err != nil {
		return fmt.Errorf("saving image: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

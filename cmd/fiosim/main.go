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
	"flag"
	"fmt"
	"os"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

func main() {
	pattern := flag.String("pattern", "write", "read, write, randread, or randwrite")
	bs := flag.Int("bs", 4096, "block size in bytes")
	runtime := flag.Float64("runtime", 5, "job runtime in virtual seconds")
	scenario := flag.Int("scenario", 2, "testbed scenario (1-3)")
	freq := flag.Float64("freq", 0, "attack tone frequency in Hz (0 = no attack)")
	distance := flag.Float64("distance", 1, "speaker distance in cm")
	seed := flag.Int64("seed", 1, "simulation seed")
	image := flag.String("image", "", "optional disk image: loaded if present, saved after the run")
	flag.Parse()

	var p fio.Pattern
	switch *pattern {
	case "read":
		p = fio.SeqRead
	case "write":
		p = fio.SeqWrite
	case "randread":
		p = fio.RandRead
	case "randwrite":
		p = fio.RandWrite
	default:
		fmt.Fprintf(os.Stderr, "fiosim: unknown pattern %q\n", *pattern)
		os.Exit(2)
	}
	var s core.Scenario
	switch *scenario {
	case 1:
		s = core.Scenario1
	case 2:
		s = core.Scenario2
	case 3:
		s = core.Scenario3
	default:
		fmt.Fprintln(os.Stderr, "fiosim: scenario must be 1, 2, or 3")
		os.Exit(2)
	}
	if err := valid.AtLeast("-freq", *freq, 0); err != nil {
		fmt.Fprintf(os.Stderr, "fiosim: %v\n", err)
		os.Exit(1)
	}
	jobRuntime, err := valid.Seconds("-runtime", *runtime)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fiosim: %v\n", err)
		os.Exit(1)
	}

	rig, err := core.NewRig(s, units.Distance(*distance)*units.Centimeter, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fiosim: %v\n", err)
		os.Exit(1)
	}
	if *image != "" {
		if f, err := os.Open(*image); err == nil {
			if err := rig.Disk.LoadImage(f); err != nil {
				fmt.Fprintf(os.Stderr, "fiosim: loading image: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}
		defer func() {
			f, err := os.Create(*image)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fiosim: saving image: %v\n", err)
				return
			}
			defer f.Close()
			if err := rig.Disk.SaveImage(f); err != nil {
				fmt.Fprintf(os.Stderr, "fiosim: saving image: %v\n", err)
			}
		}()
	}
	if *freq > 0 {
		tone := sig.NewTone(units.Frequency(*freq))
		rig.ApplyTone(tone)
		fmt.Printf("attack: %v tone, incident %v at %v, %v\n",
			tone.Freq, rig.Testbed.IncidentSPL(tone), rig.Testbed.Chain.Path.Distance, s)
	}

	job := fio.Job{
		Name:      *pattern,
		Pattern:   p,
		BlockSize: *bs,
		Span:      1 << 30,
		Runtime:   jobRuntime,
		Seed:      *seed,
	}
	res, err := fio.NewRunner(rig.Disk, rig.Clock).Run(job)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fiosim: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%s: bs=%d span=1GiB runtime=%.1fs (virtual)\n", job.Name, job.BlockSize, job.Runtime.Seconds())
	if res.NoResponse {
		fmt.Println("  NO RESPONSE: the device completed zero requests")
		fmt.Printf("  errors=%d\n", res.Errors)
		return
	}
	fmt.Printf("  throughput: %.1f MB/s (%.0f IOPS)\n", res.ThroughputMBps(), res.IOPS())
	fmt.Printf("  latency: mean=%.2fms p50=%.2fms p99=%.2fms max=%.2fms\n",
		ms(res.Latencies.Mean), ms(res.Latencies.P50), ms(res.Latencies.P99), ms(res.Latencies.Max))
	fmt.Printf("  ops=%d errors=%d bytes=%d\n", res.Ops, res.Errors, res.Bytes)
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

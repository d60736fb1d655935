// Command dbbench is a db_bench-style CLI for the simulated key-value
// store running on the simulated filesystem and victim drive.
//
// Usage:
//
//	dbbench [-workload fillseq|fillrandom|readrandom|readwhilewriting]
//	        [-num N] [-runtime SECONDS] [-scenario 1|2|3]
//	        [-freq HZ] [-distance CM] [-valuesize BYTES]
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

	"deepnote/internal/core"
	"deepnote/internal/jfs"
	"deepnote/internal/kvdb"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds dbbench's flags.
type options struct {
	workload            string
	num, valueSize      int
	fill, scenario      int
	runtime, freq, dist float64
	seed                int64
	image               string
}

// run parses args, runs the benchmark and returns the exit status: 0 on
// success and for -h, 2 for a usage error, 1 for any other error.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fl := flag.NewFlagSet("dbbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	fl.StringVar(&o.workload, "workload", "readwhilewriting", "fillseq, fillrandom, readrandom, or readwhilewriting")
	fl.IntVar(&o.num, "num", 10000, "operation count for fill/read workloads")
	fl.Float64Var(&o.runtime, "runtime", 5, "window for readwhilewriting (virtual seconds)")
	fl.IntVar(&o.scenario, "scenario", 2, "testbed scenario (1-3)")
	fl.Float64Var(&o.freq, "freq", 0, "attack tone frequency in Hz (0 = no attack)")
	fl.Float64Var(&o.dist, "distance", 1, "speaker distance in cm")
	fl.IntVar(&o.valueSize, "valuesize", 100, "value size in bytes")
	fl.IntVar(&o.fill, "fill", 5000, "pre-population for readwhilewriting (0 = none)")
	fl.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fl.StringVar(&o.image, "image", "", "optional disk image: loaded if present (skips mkfs), saved after the run")
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
	if err := o.run(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "dbbench: %v\n", err)
		return 1
	}
	return 0
}

func (o options) run(stdout, stderr io.Writer) error {
	if err := valid.AtLeast("-fill", o.fill, 0); err != nil {
		return err
	}
	if err := valid.AtLeast("-freq", o.freq, 0); err != nil {
		return err
	}
	window, err := valid.Seconds("-runtime", o.runtime)
	if err != nil {
		return err
	}
	s, err := core.ParseScenario(o.scenario)
	if err != nil {
		return err
	}

	rig, err := core.NewRig(s, units.Distance(o.dist)*units.Centimeter, o.seed)
	if err != nil {
		return err
	}
	loaded := false
	if o.image != "" {
		if loaded, err = rig.Disk.LoadImageFile(o.image); err != nil {
			return err
		}
	}
	if !loaded {
		if err := jfs.Mkfs(rig.Disk, jfs.MkfsOptions{Blocks: 1 << 17}); err != nil {
			return err
		}
	}
	fs, err := jfs.Mount(rig.Disk, rig.Clock, jfs.Config{})
	if err != nil {
		return err
	}
	db, err := kvdb.Open(fs, rig.Clock, kvdb.Options{Seed: o.seed})
	if err != nil {
		return err
	}
	bench := kvdb.NewBench(db, rig.Clock)

	if o.workload == kvdb.WorkloadReadWhileWriting && o.fill > 0 {
		if _, err := bench.Run(kvdb.BenchSpec{Workload: kvdb.WorkloadFillRandom, Num: o.fill, ValueSize: o.valueSize, Seed: o.seed}); err != nil {
			return err
		}
	}
	if o.freq > 0 {
		tone := sig.NewTone(units.Frequency(o.freq))
		rig.ApplyTone(tone)
		fmt.Fprintf(stdout, "attack: %v from %s in %v\n", tone.Freq, rig.Testbed.Chain.Path.Distance, s)
	}

	spec := kvdb.BenchSpec{
		Workload:  o.workload,
		Num:       o.num,
		Runtime:   window,
		ValueSize: o.valueSize,
		Seed:      o.seed,
	}
	res, err := bench.Run(spec)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%s: ops=%d errors=%d elapsed=%.1fs (virtual)\n",
		o.workload, res.Ops, res.Errors, res.Elapsed.Seconds())
	fmt.Fprintf(stdout, "  throughput: %.1f MB/s, %.0f ops/s\n", res.ThroughputMBps(), res.OpsPerSec())
	l0, l1 := db.Levels()
	st := db.Stats()
	fmt.Fprintf(stdout, "  engine: L0=%d L1=%d flushes=%d compactions=%d wal_errors=%d\n",
		l0, l1, st.MemtableFlushes, st.Compactions, st.WALErrors)
	if res.Crashed {
		fmt.Fprintf(stdout, "  CRASHED: %v\n", res.CrashErr)
	}
	if o.image == "" || res.Crashed {
		return nil
	}
	if err := db.Close(); err != nil {
		return err
	}
	if err := fs.Unmount(); err != nil {
		return err
	}
	if err := rig.Disk.SaveImageFile(o.image); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "image saved to %s\n", o.image)
	return nil
}

// Command dbbench is a db_bench-style CLI for the simulated key-value
// store running on the simulated filesystem and victim drive.
//
// Usage:
//
//	dbbench [-workload fillseq|fillrandom|readrandom|readwhilewriting]
//	        [-num N] [-runtime SECONDS] [-scenario 1|2|3]
//	        [-freq HZ] [-distance CM] [-valuesize BYTES]
//
// A frequency of 0 disables the attack.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/jfs"
	"deepnote/internal/kvdb"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

func main() {
	workload := flag.String("workload", "readwhilewriting", "fillseq, fillrandom, readrandom, or readwhilewriting")
	num := flag.Int("num", 10000, "operation count for fill/read workloads")
	runtime := flag.Float64("runtime", 5, "window for readwhilewriting (virtual seconds)")
	scenario := flag.Int("scenario", 2, "testbed scenario (1-3)")
	freq := flag.Float64("freq", 0, "attack tone frequency in Hz (0 = no attack)")
	distance := flag.Float64("distance", 1, "speaker distance in cm")
	valueSize := flag.Int("valuesize", 100, "value size in bytes")
	fill := flag.Int("fill", 5000, "pre-population for readwhilewriting (0 = none)")
	seed := flag.Int64("seed", 1, "simulation seed")
	image := flag.String("image", "", "optional disk image: loaded if present (skips mkfs), saved after the run")
	flag.Parse()
	if err := valid.AtLeast("-fill", *fill, 0); err != nil {
		fatal(err)
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
		fmt.Fprintln(os.Stderr, "dbbench: scenario must be 1, 2, or 3")
		os.Exit(2)
	}

	rig, err := core.NewRig(s, units.Distance(*distance)*units.Centimeter, *seed)
	if err != nil {
		fatal(err)
	}
	loaded := false
	if *image != "" {
		if f, err := os.Open(*image); err == nil {
			if err := rig.Disk.LoadImage(f); err != nil {
				fatal(err)
			}
			f.Close()
			loaded = true
		}
	}
	if !loaded {
		if err := jfs.Mkfs(rig.Disk, jfs.MkfsOptions{Blocks: 1 << 17}); err != nil {
			fatal(err)
		}
	}
	fs, err := jfs.Mount(rig.Disk, rig.Clock, jfs.Config{})
	if err != nil {
		fatal(err)
	}
	db, err := kvdb.Open(fs, rig.Clock, kvdb.Options{Seed: *seed})
	if err != nil {
		fatal(err)
	}
	bench := kvdb.NewBench(db, rig.Clock)

	if *workload == kvdb.WorkloadReadWhileWriting && *fill > 0 {
		if _, err := bench.Run(kvdb.BenchSpec{Workload: kvdb.WorkloadFillRandom, Num: *fill, ValueSize: *valueSize, Seed: *seed}); err != nil {
			fatal(err)
		}
	}
	if *freq > 0 {
		tone := sig.NewTone(units.Frequency(*freq))
		rig.ApplyTone(tone)
		fmt.Printf("attack: %v from %s in %v\n", tone.Freq, rig.Testbed.Chain.Path.Distance, s)
	}

	spec := kvdb.BenchSpec{
		Workload:  *workload,
		Num:       *num,
		Runtime:   time.Duration(*runtime * float64(time.Second)),
		ValueSize: *valueSize,
		Seed:      *seed,
	}
	res, err := bench.Run(spec)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%s: ops=%d errors=%d elapsed=%.1fs (virtual)\n",
		*workload, res.Ops, res.Errors, res.Elapsed.Seconds())
	fmt.Printf("  throughput: %.1f MB/s, %.0f ops/s\n", res.ThroughputMBps(), res.OpsPerSec())
	l0, l1 := db.Levels()
	st := db.Stats()
	fmt.Printf("  engine: L0=%d L1=%d flushes=%d compactions=%d wal_errors=%d\n",
		l0, l1, st.MemtableFlushes, st.Compactions, st.WALErrors)
	if res.Crashed {
		fmt.Printf("  CRASHED: %v\n", res.CrashErr)
	}
	if *image != "" && !res.Crashed {
		if err := db.Close(); err != nil {
			fatal(err)
		}
		if err := fs.Unmount(); err != nil {
			fatal(err)
		}
		f, err := os.Create(*image)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := rig.Disk.SaveImage(f); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "image saved to %s\n", *image)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dbbench: %v\n", err)
	os.Exit(1)
}

package main

import (
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"deepnote/internal/experiment"
	"deepnote/internal/units"
)

// cmdExfil runs the covert-channel experiment: the attack in reverse. An
// insider's drive modulates seek acoustics to carry data; the offense leg
// maps net goodput over distance, depth, and the benign ambient corpus,
// and sweeps signaling rate for both schemes; the defense leg runs the
// same waveforms under the PR 9 fingerprinting pipeline and reports how
// many payload bytes leak before the alarm. Stdout is byte-identical for
// any -workers value and with metrics on or off.
func cmdExfil(args []string) error {
	fs := flag.NewFlagSet("exfil", flag.ExitOnError)
	distances := fs.String("distances", "5,20,80", "comma-separated transmitter-to-hydrophone ranges in m")
	depths := fs.String("depths", "0,6", "comma-separated facility surface depths in m (0 = deep water)")
	rates := fs.String("rates", "16,32,64", "comma-separated signaling rates in baud")
	frames := fs.Int("frames", 3, "frames transmitted per offense cell")
	detectFrames := fs.Int("detect-frames", 8, "frames transmitted per defense cell")
	seed := fs.Int64("seed", 1, "base seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = one per CPU)")
	o := addObsFlags(fs)
	fs.Parse(args)

	distList, err := parseFloatList("-distances", *distances)
	if err != nil {
		return err
	}
	depthList, err := parseFloatList("-depths", *depths)
	if err != nil {
		return err
	}
	rateList, err := parseFloatList("-rates", *rates)
	if err != nil {
		return err
	}
	res, err := experiment.ExfilRun(experiment.ExfilSpec{
		Distances:    metersOf(distList),
		Depths:       metersOf(depthList),
		SymbolRates:  rateList,
		Frames:       *frames,
		DetectFrames: *detectFrames,
		Seed:         *seed,
		Workers:      *workers,
		Metrics:      o.registry(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("exfil: %d capacity cells, %d rate cells, %d defense cells\n",
		len(res.Capacity), len(res.Rates), len(res.Detect))
	fmt.Print(experiment.ExfilCapacityReport(res).String())
	fmt.Println()
	fmt.Print(experiment.ExfilRateReport(res).String())
	fmt.Println()
	fmt.Print(experiment.ExfilDetectReport(res).String())
	fmt.Printf("bit-exact recovery at %d distances over %d ambient backgrounds; best goodput %.2f b/s\n",
		res.RecoveredDistances, res.RecoveredAmbients, res.BestGoodputBps)
	return o.finish("exfil", args, *seed, *workers)
}

// parseFloatList parses the comma-separated list given to flag name. Every
// entry must be a finite number, so an empty list or entry fails too.
func parseFloatList(name, s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %v", name, part, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bad %s entry %q: not a finite number", name, part)
		}
		out = append(out, v)
	}
	return out, nil
}

func metersOf(vals []float64) []units.Distance {
	out := make([]units.Distance, len(vals))
	for i, v := range vals {
		out[i] = units.Distance(v * float64(units.Meter))
	}
	return out
}

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
	spec := experiment.DefaultExfilSpec()
	var bad error
	distances := fs.String("distances", listDefault(spec.Distances), "comma-separated transmitter-to-hydrophone ranges in m")
	depths := fs.String("depths", listDefault(spec.Depths), "comma-separated facility surface depths in m (0 = deep water)")
	rates := fs.String("rates", listDefault(spec.SymbolRates), "comma-separated signaling rates in baud")
	fs.IntVar(&spec.Frames, "frames", spec.Frames, "frames transmitted per offense cell")
	fs.IntVar(&spec.DetectFrames, "detect-frames", spec.DetectFrames, "frames transmitted per defense cell")
	fs.Int64Var(&spec.Seed, "seed", spec.Seed, "base seed")
	workersVar(fs, &spec.Workers, &bad, "workers", "parallel workers (0 = one per CPU)")
	o := addObsFlags(fs)
	fs.Parse(args)
	if bad != nil {
		return bad
	}

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
	spec.Distances, spec.Depths, spec.SymbolRates = metersOf(distList), metersOf(depthList), rateList
	spec.Metrics = o.registry()
	res, err := experiment.ExfilRun(spec)
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
	return o.finish("exfil", args, spec.Seed, spec.Workers)
}

// listDefault formats a spec's list as a comma-separated flag default
// (distances in meters).
func listDefault[T ~float64](vals []T) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatFloat(float64(v), 'g', -1, 64)
	}
	return strings.Join(parts, ",")
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

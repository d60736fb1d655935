package main

import (
	"fmt"
	"io"
	"time"

	"deepnote/internal/experiment"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// cmdFingerprint runs the spectral-fingerprinting experiment: the benign
// ambient corpus (ship traffic, rain, snapping shrimp, facility pumps,
// thermal creak) measures the classifier's false-positive rate, and the
// hostile tone is injected over every background at controlled SNRs to
// measure detection latency and confidence. Stdout is byte-identical for
// any -workers value and with metrics on or off.
func cmdFingerprint(fs *flagSet) func(io.Writer) error {
	freq := fs.Float64("freq", 650, "hostile tone in Hz")
	snrs := fs.String("snrs", "0,6,12", "comma-separated hostile SNRs in dB over the telemetry floor")
	seeds := fs.Int("seeds", 3, "seeded variants of each benign scenario")
	duration := 12 * time.Second
	fs.durationVar(&duration, "duration", "run length per cell in virtual `seconds`")
	seed := fs.Int64("seed", 1, "base seed")
	var workers int
	fs.workersVar(&workers, "workers", "parallel workers (0 = one per CPU)")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		// FingerprintSpec reads a zero Freq as 650 Hz, which the header
		// would misreport as a 0 Hz run.
		if err := valid.Positive("-freq", *freq); err != nil {
			return err
		}
		// The report divides by the seed count.
		if err := valid.AtLeast("-seeds", *seeds, 1); err != nil {
			return err
		}
		snrList, err := parseFloatList("-snrs", *snrs)
		if err != nil {
			return err
		}
		res, err := experiment.FingerprintRun(experiment.FingerprintSpec{
			Freq:        units.Frequency(*freq),
			SNRs:        snrList,
			BenignSeeds: *seeds,
			Duration:    duration,
			Seed:        *seed,
			Workers:     workers,
			Metrics:     o.registry(),
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fingerprint: %d benign cells (%d scenarios x %d seeds), %d hostile cells at %.0f Hz\n",
			len(res.Benign), len(res.Benign) / *seeds, *seeds, len(res.Hostile), *freq)
		fmt.Fprint(stdout, experiment.FingerprintBenignReport(res).String())
		fmt.Fprintf(stdout, "corpus false-positive rate: %d/%d windows = %.4f (max benign confidence %.2f)\n",
			res.FalsePositives, res.BenignWindows, res.FPRate, res.BenignMaxConfidence)
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, experiment.FingerprintDetectionReport(res).String())
		fmt.Fprintf(stdout, "defense gate at min confidence 0.5: benign verdict armed=%v, hostile verdict armed=%v\n",
			res.GateBenignArmed, res.GateHostileArmed)
		return o.finish(*seed, workers)
	}
}

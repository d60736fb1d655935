package main

import (
	"flag"
	"fmt"

	"deepnote/internal/experiment"
	"deepnote/internal/oracle"
)

// cmdSelfCheck runs the oracle-vs-simulation differential harness over the
// §4.1 grid and renders the per-cell divergence table. It exits non-zero
// when any cell diverges beyond tolerance, so CI can gate on it.
func cmdSelfCheck(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	opts := experiment.DefaultSelfCheckOptions()
	var bad error
	scenario := fs.Int("scenario", int(opts.Scenario), "testbed scenario 1, 2, or 3")
	workersVar(fs, &opts.Workers, &bad, "workers", "parallel workers (0 = one per CPU)")
	fs.Float64Var(&opts.Tolerance, "tol", opts.Tolerance, "max per-cell divergence")
	fs.DurationVar(&opts.JobRuntime, "runtime", opts.JobRuntime, "per-cell simulation window in virtual time")
	fs.IntVar(&opts.Repeats, "repeats", opts.Repeats, "seeded simulations averaged per cell")
	fs.Int64Var(&opts.Seed, "seed", opts.Seed, "run seed")
	reportPath := fs.String("report", "", "write the divergence report JSON to this path")
	mutant := fs.String("mutant", "", "seed a known predictor bug: flat-hold-window, whole-request-window, or full-base-on-failure")
	o := addObsFlags(fs)
	fs.Parse(args)
	if bad != nil {
		return bad
	}
	var err error
	if opts.Scenario, err = parseScenario(*scenario); err != nil {
		return err
	}
	if opts.Mutation, err = parseMutation(*mutant); err != nil {
		return err
	}
	opts.Metrics = o.registry()
	rep, err := experiment.SelfCheck(opts)
	if err != nil {
		return err
	}
	fmt.Print(rep.Table().String())
	fmt.Printf("cells %d, failures %d, max divergence %.1f%% (tolerance %.0f%%)\n",
		len(rep.Cells), rep.Failures, rep.MaxDivergence*100, rep.Tolerance*100)
	if *reportPath != "" {
		if err := oracle.WriteReport(*reportPath, rep); err != nil {
			return err
		}
	}
	if err := o.finish("selfcheck", args, opts.Seed, opts.Workers); err != nil {
		return err
	}
	if !rep.Passed() {
		return fmt.Errorf("%d of %d cells diverged beyond %.0f%% tolerance",
			rep.Failures, len(rep.Cells), rep.Tolerance*100)
	}
	return nil
}

func parseMutation(s string) (oracle.Mutation, error) {
	switch s {
	case "":
		return oracle.MutNone, nil
	case "flat-hold-window":
		return oracle.MutFlatHoldWindow, nil
	case "whole-request-window":
		return oracle.MutWholeRequestWindow, nil
	case "full-base-on-failure":
		return oracle.MutFullBaseOnFailure, nil
	default:
		return oracle.MutNone, fmt.Errorf("unknown mutant %q", s)
	}
}

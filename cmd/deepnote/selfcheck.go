package main

import (
	"fmt"
	"io"

	"deepnote/internal/experiment"
	"deepnote/internal/oracle"
)

// cmdSelfCheck runs the oracle-vs-simulation differential harness over the
// §4.1 grid and renders the per-cell divergence table. It exits non-zero
// when any cell diverges beyond tolerance, so CI can gate on it.
func cmdSelfCheck(fs *flagSet) func(io.Writer) error {
	opts := experiment.DefaultSelfCheckOptions()
	fs.scenarioVar(&opts.Scenario)
	fs.workersVar(&opts.Workers, "workers", "parallel workers (0 = one per CPU)")
	fs.Float64Var(&opts.Tolerance, "tol", opts.Tolerance, "max per-cell divergence")
	fs.DurationVar(&opts.JobRuntime, "runtime", opts.JobRuntime, "per-cell simulation window in virtual time")
	fs.IntVar(&opts.Repeats, "repeats", opts.Repeats, "seeded simulations averaged per cell")
	fs.Int64Var(&opts.Seed, "seed", opts.Seed, "run seed")
	reportPath := fs.String("report", "", "write the divergence report JSON to this path")
	mutant := fs.String("mutant", "", "seed a known predictor bug: flat-hold-window, whole-request-window, or full-base-on-failure")
	o := addObsFlags(fs)
	return func(stdout io.Writer) error {
		var ok bool
		if opts.Mutation, ok = mutations[*mutant]; !ok {
			return fmt.Errorf("unknown mutant %q", *mutant)
		}
		opts.Metrics = o.registry()
		rep, err := experiment.SelfCheck(opts)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, rep.Table().String())
		fmt.Fprintf(stdout, "cells %d, failures %d, max divergence %.1f%% (tolerance %.0f%%)\n",
			len(rep.Cells), rep.Failures, rep.MaxDivergence*100, rep.Tolerance*100)
		if *reportPath != "" {
			if err := oracle.WriteReport(*reportPath, rep); err != nil {
				return err
			}
		}
		if err := o.finish(opts.Seed, opts.Workers); err != nil {
			return err
		}
		if !rep.Passed() {
			return fmt.Errorf("%d of %d cells diverged beyond %.0f%% tolerance",
				rep.Failures, len(rep.Cells), rep.Tolerance*100)
		}
		return nil
	}
}

// mutations maps each -mutant name to the predictor bug it seeds.
var mutations = map[string]oracle.Mutation{
	"":                     oracle.MutNone,
	"flat-hold-window":     oracle.MutFlatHoldWindow,
	"whole-request-window": oracle.MutWholeRequestWindow,
	"full-base-on-failure": oracle.MutFullBaseOnFailure,
}

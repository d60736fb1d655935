package experiment

import (
	"context"
	"fmt"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/parallel"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// Ablations quantify the load-bearing design choices in the victim model
// (DESIGN.md §4): what happens to the headline results if a mechanism is
// removed or a calibrated constant moved. Each ablation answers "does this
// part of the model actually matter," which is the difference between a
// mechanism and a curve fit.

// AblationRow is one variant's headline metrics.
type AblationRow struct {
	Variant string
	// Write10cmMBps is Table 1's 10 cm write cell.
	Write10cmMBps float64
	// Read10cmMBps is Table 1's 10 cm read cell.
	Read10cmMBps float64
	// NoResponseAt5cm reports whether the 5 cm row still deadlocks.
	NoResponseAt5cm bool
	// BandTopHz is the write band's upper edge at 1 cm (≥50% loss).
	BandTopHz float64
}

// ablationVariant mutates a testbed's drive model.
type ablationVariant struct {
	name   string
	mutate func(tb *core.Testbed)
}

func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{"baseline (calibrated model)", func(tb *core.Testbed) {}},
		{"no servo lock-loss cliff", func(tb *core.Testbed) {
			tb.DriveModel.ServoLockFrac = 1e9
		}},
		{"equal r/w fault thresholds", func(tb *core.Testbed) {
			tb.DriveModel.ReadFaultFrac = tb.DriveModel.WriteFaultFrac + 1e-9
		}},
		{"no servo wedge window", func(tb *core.Testbed) {
			tb.DriveModel.WedgeWindow = 0
		}},
		{"cheap write retries (= read)", func(tb *core.Testbed) {
			tb.DriveModel.RetryWrite = tb.DriveModel.RetryRead
		}},
		{"no servo rejection (flat)", func(tb *core.Testbed) {
			tb.DriveModel.ServoCrossover = 1 * units.Hz
		}},
	}
}

// runAblationVariant measures one variant's headline numbers.
func runAblationVariant(v ablationVariant, seed int64) (AblationRow, error) {
	row := AblationRow{Variant: v.name}

	measure := func(d units.Distance, p fio.Pattern, f units.Frequency) (fio.Result, error) {
		tb, err := core.NewTestbed(core.Scenario2, d)
		if err != nil {
			return fio.Result{}, err
		}
		v.mutate(tb)
		rig, err := core.NewRigFromTestbed(tb, seed)
		if err != nil {
			return fio.Result{}, err
		}
		rig.ApplyTone(sig.NewTone(f))
		return fio.NewRunner(rig.Disk, rig.Clock).Run(fio.PaperJob(p, time.Second))
	}

	w10, err := measure(10*units.Centimeter, fio.SeqWrite, 650)
	if err != nil {
		return row, err
	}
	row.Write10cmMBps = w10.ThroughputMBps()
	r10, err := measure(10*units.Centimeter, fio.SeqRead, 650)
	if err != nil {
		return row, err
	}
	row.Read10cmMBps = r10.ThroughputMBps()
	w5, err := measure(5*units.Centimeter, fio.SeqWrite, 650)
	if err != nil {
		return row, err
	}
	row.NoResponseAt5cm = w5.NoResponse

	// Band top: walk down from 3 kHz until ≥50% write loss appears.
	for f := units.Frequency(3000); f >= 300; f -= 100 {
		res, err := measure(1*units.Centimeter, fio.SeqWrite, f)
		if err != nil {
			return row, err
		}
		if res.ThroughputMBps() <= 22.7/2 {
			row.BandTopHz = f.Hertz()
			break
		}
	}
	return row, nil
}

// AblationWorkers runs the full variant suite over at most workers
// goroutines (≤ 0 means one per CPU). Each variant mutates its own
// testbeds, so the rows match a serial run exactly.
func AblationWorkers(seed int64, workers int) ([]AblationRow, error) {
	return parallel.Run(context.Background(), ablationVariants(), workers,
		func(_ context.Context, _ int, v ablationVariant) (AblationRow, error) {
			return runAblationVariant(v, seed)
		})
}

// AblationReport renders the suite.
func AblationReport(rows []AblationRow) *report.Table {
	tb := report.NewTable(
		"Model ablations: headline metrics per removed mechanism (650 Hz, Scenario 2)",
		"Variant", "10cm write MB/s", "10cm read MB/s", "5cm dead", "band top Hz")
	for _, r := range rows {
		tb.AddRow(r.Variant,
			fmt.Sprintf("%.2f", r.Write10cmMBps),
			fmt.Sprintf("%.1f", r.Read10cmMBps),
			fmt.Sprintf("%v", r.NoResponseAt5cm),
			fmt.Sprintf("%.0f", r.BandTopHz))
	}
	return tb
}

package campaign

import (
	"context"
	"fmt"
	"time"

	"deepnote/internal/metrics"
	"deepnote/internal/parallel"
	"deepnote/internal/report"
)

// Grid sweeps the duty-cycle plane: every (On, Off) pair from the two
// axes is a full Stealth campaign, and the resulting matrix shows the
// attacker's damage/stealth trade-off at a glance. Cells are independent
// campaigns on independent rigs, so the grid fans out over the Workers
// pool; each cell's seed is derived with parallel.SeedFor from the base
// spec's seed and the cell index, making the whole grid reproducible
// bit-for-bit at any parallelism.
type Grid struct {
	// Base supplies everything except the duty cycle; its Seed is the
	// base seed each cell's seed is derived from.
	Base Stealth
	// OnValues and OffValues are the grid axes (burst length × quiet
	// gap).
	OnValues, OffValues []time.Duration
	// Workers bounds how many cells run concurrently; ≤ 0 means one
	// worker per CPU.
	Workers int
	// Metrics receives engine, campaign, and per-layer counters when
	// non-nil; per-cell publishes merge commutatively, so the snapshot is
	// identical for any Workers value.
	Metrics *metrics.Registry
}

// DefaultGrid is the grid `deepnote stealthgrid` runs with no flags: a
// DefaultStealth base over paper-flavoured burst and gap axes.
func DefaultGrid() Grid {
	return Grid{
		Base:      DefaultStealth(),
		OnValues:  []time.Duration{500 * time.Millisecond, 1 * time.Second, 2 * time.Second},
		OffValues: []time.Duration{0, 2 * time.Second, 10 * time.Second},
	}
}

// Run executes every cell of the grid and returns results in row-major
// order (OnValues outer, OffValues inner), identical for any Workers.
func (g Grid) Run() ([]Result, error) {
	type cell struct {
		duty DutyCycle
	}
	var cells []cell
	for _, on := range g.OnValues {
		for _, off := range g.OffValues {
			cells = append(cells, cell{duty: DutyCycle{On: on, Off: off}})
		}
	}
	return parallel.RunObserved(context.Background(), cells, g.Workers, g.Metrics,
		func(_ context.Context, i int, c cell) (Result, error) {
			s := g.Base
			s.Duty = c.duty
			s.Seed = parallel.SeedFor(g.Base.Seed, i)
			s.Metrics = g.Metrics
			res, err := s.Run()
			if err == nil {
				g.Metrics.Add("campaign.grid_cells", 1)
			}
			return res, err
		})
}

// GridReport renders the duty-cycle matrix.
func GridReport(rows []Result) *report.Table {
	tb := report.NewTable(
		"Duty-cycle grid: damage vs stealth",
		"On", "Off", "On-air", "Loss", "Alarms", "Max suspicion")
	for _, r := range rows {
		tb.AddRow(
			r.Spec.Duty.On.String(),
			r.Spec.Duty.Off.String(),
			fmt.Sprintf("%.0f%%", r.Spec.Duty.Fraction()*100),
			fmt.Sprintf("%.0f%%", r.LossFraction*100),
			fmt.Sprintf("%d", r.Alarms),
			fmt.Sprintf("%.2f", r.MaxSuspicion))
	}
	return tb
}

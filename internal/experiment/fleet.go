package experiment

import (
	"context"
	"fmt"

	"deepnote/internal/cluster"
	"deepnote/internal/core"
	"deepnote/internal/parallel"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// Fleet models a small underwater data center as M containers of N drives
// each, and asks the scaling question the paper's introduction implies:
// how much of the facility can an attacker with k speakers take offline?
// The facility is a cluster.LineLayout: containers in a line at the
// configured pitch, one point-blank speaker pressed against each
// targeted container, and every container's exposure computed from its
// geometric acoustics.Path to the nearest source (non-targeted
// containers are protected only by spreading along the real water path).

// FleetSpec describes the facility and attack. Every speaker plays the
// paper's 650 Hz tone. Start from DefaultFleetSpec; every value is used
// as given.
type FleetSpec struct {
	// Containers and DrivesPerContainer set the facility size.
	Containers, DrivesPerContainer int
	// Speakers is the attacker's simultaneous source count, at most one
	// per container (the model's geometry: an extra speaker has no
	// container left to target).
	Speakers int
	// ContainerSpacing is the distance from a speaker to the *next*
	// container over.
	ContainerSpacing units.Distance
	// Workers bounds how many containers are evaluated concurrently;
	// ≤ 0 means one worker per CPU. Results are identical for any worker
	// count.
	Workers int
}

// DefaultFleetSpec is the facility `deepnote facility` sweeps with no
// flags.
func DefaultFleetSpec() FleetSpec {
	return FleetSpec{Containers: 4, DrivesPerContainer: 5, ContainerSpacing: 2 * units.Meter}
}

func (s FleetSpec) validate() error {
	return valid.First("experiment: FleetSpec",
		valid.AtLeast("Containers", s.Containers, 1),
		valid.AtLeast("DrivesPerContainer", s.DrivesPerContainer, 1),
		valid.In("Speakers", s.Speakers, 0, s.Containers),
		valid.Positive("ContainerSpacing", s.ContainerSpacing),
	)
}

// FleetResult reports facility-level availability.
type FleetResult struct {
	Spec FleetSpec
	// DrivesTotal and DrivesFaulting count the facility.
	DrivesTotal, DrivesFaulting int
	// Availability is the fraction of drives still below the write
	// fault threshold.
	Availability float64
}

// FleetAvailability computes, analytically from the off-track model, how
// many drives fault when k containers are targeted point-blank and the
// rest receive only the spill-over from the nearest speaker. Each
// container's speaker distance is its geometric path length in the
// cluster layout (co-located speakers clamp to the paper's 1 cm
// point-blank geometry). Containers are evaluated concurrently over the
// spec's Workers pool; each builds its own testbed.
func FleetAvailability(spec FleetSpec) (FleetResult, error) {
	if err := spec.validate(); err != nil {
		return FleetResult{}, err
	}
	res := FleetResult{Spec: spec, DrivesTotal: spec.Containers * spec.DrivesPerContainer}
	tone := sig.NewTone(650 * units.Hz)
	targets := make([]int, spec.Speakers)
	for i := range targets {
		targets[i] = i
	}
	lay := cluster.LineLayout(spec.Containers, spec.ContainerSpacing).WithSpeakersAt(tone, targets...)
	counts, err := parallel.Run(context.Background(), parallel.Indices(spec.Containers), spec.Workers,
		func(_ context.Context, _ int, c int) (int, error) {
			// Real path distance to the nearest speaker in the layout.
			d, attacked := lay.NearestSpeakerDistance(c)
			if !attacked {
				return 0, nil
			}
			tb, err := core.NewTestbed(core.Scenario2, d)
			if err != nil {
				return 0, err
			}
			faulting := 0
			for slot := 0; slot < spec.DrivesPerContainer; slot++ {
				asm := tb.Assembly
				if asm.Mount.Tower != nil {
					mount := *asm.Mount.Tower
					asm.Mount.Slot = slot % mount.Slots
				}
				probe := *tb
				probe.Assembly = asm
				if probe.VibrationFor(tone).Amplitude >= probe.DriveModel.WriteFaultFrac {
					faulting++
				}
			}
			return faulting, nil
		})
	if err != nil {
		return res, err
	}
	for _, n := range counts {
		res.DrivesFaulting += n
	}
	res.Availability = 1 - float64(res.DrivesFaulting)/float64(res.DrivesTotal)
	return res, nil
}

// FleetSweep runs FleetAvailability for every speaker count 0..Containers.
func FleetSweep(spec FleetSpec) ([]FleetResult, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	out := make([]FleetResult, 0, spec.Containers+1)
	for k := 0; k <= spec.Containers; k++ {
		s := spec
		s.Speakers = k
		r, err := FleetAvailability(s)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FleetReport renders the sweep.
func FleetReport(rows []FleetResult) *report.Table {
	tb := report.NewTable(
		"Facility availability vs attacker speakers (write-fault criterion)",
		"Speakers", "Drives faulting", "Drives total", "Availability")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%d", r.Spec.Speakers),
			fmt.Sprintf("%d", r.DrivesFaulting),
			fmt.Sprintf("%d", r.DrivesTotal),
			fmt.Sprintf("%.0f%%", r.Availability*100))
	}
	return tb
}

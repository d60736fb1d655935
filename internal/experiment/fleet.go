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
// paper's 650 Hz tone.
type FleetSpec struct {
	// Containers and DrivesPerContainer set the facility size.
	Containers, DrivesPerContainer int
	// Speakers is the attacker's simultaneous source count.
	Speakers int
	// ContainerSpacing is the distance from a speaker to the *next*
	// container over (default 2 m).
	ContainerSpacing units.Distance
	// Workers bounds how many containers are evaluated concurrently;
	// ≤ 0 means one worker per CPU. Results are identical for any worker
	// count.
	Workers int
}

func (s FleetSpec) withDefaults() FleetSpec {
	if s.Containers <= 0 {
		s.Containers = 4
	}
	if s.DrivesPerContainer <= 0 {
		s.DrivesPerContainer = 5
	}
	if s.Speakers < 0 {
		s.Speakers = 0
	}
	// One speaker per container is the model's geometry: extra speakers
	// have no container left to target, so an over-provisioned attacker
	// behaves exactly like one with a speaker per container. Without the
	// clamp the c < Speakers branch would mislabel spill-over distances.
	if s.Speakers > s.Containers {
		s.Speakers = s.Containers
	}
	if s.ContainerSpacing == 0 {
		s.ContainerSpacing = 2 * units.Meter
	}
	return s
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
	spec = spec.withDefaults()
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
	spec = spec.withDefaults()
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

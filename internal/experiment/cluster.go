package experiment

import (
	"context"
	"fmt"
	"time"

	"deepnote/internal/cluster"
	"deepnote/internal/hdd"
	"deepnote/internal/parallel"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/sonar"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// ClusterSpec is the facility-scale campaign: an erasure-coded
// datacenter serving open-loop client traffic while an attacker ladder
// adds point-blank speakers one failure domain at a time, keying them on
// mid-run. It answers the question the paper's introduction poses at
// facility scale: how many sources must an attacker position before the
// redundant store actually loses availability? Start from
// DefaultClusterSpec; every value is used as given.
type ClusterSpec struct {
	Facility
	Site
	// MaxSpeakers is the top of the attacker ladder; cells run speaker
	// counts 0..MaxSpeakers (0 = Containers, at most Containers).
	MaxSpeakers int
	// Cells, when non-nil, restricts the sweep to these speaker counts
	// (each in 0..MaxSpeakers) instead of the full ladder — the way a
	// single huge-workload cell is run without paying for the whole
	// ladder.
	Cells []int
	// AttackStopFrac keys the speakers off, so the cluster serves load
	// before, during, and after the attack window [AttackStartFrac,
	// AttackStopFrac]. AttackStopFrac ≥ 1 means the speakers never key
	// off — the sustained-attack case the availability-cliff analysis
	// uses. It is ignored when StaggerFrac staggers the key-ons.
	AttackStopFrac float64
	// Defense closes the loop in every cell: the hydrophone ring hears
	// each key-on, multilaterates it, and the fixes steer the store via
	// cluster.SetDefense.
	Defense bool
	// Workers bounds the ladder fan-out (≤ 0 = one per CPU); results are
	// identical for any worker count.
	Workers int
	// CellWorkers bounds the drive fan-out inside each cell's cluster
	// (≤ 0 = one per CPU). The ladder is usually the fan-out axis; raise
	// it when running one huge cell via Cells. Results never depend on it.
	CellWorkers int
}

// DefaultClusterSpec is the campaign `deepnote cluster` runs with no
// flags.
func DefaultClusterSpec() ClusterSpec {
	return ClusterSpec{
		Facility: Facility{
			DataShards: 4, ParityShards: 2, Objects: 24, ObjectSize: 16 << 10,
			Spacing: 2 * units.Meter, Freq: 650 * units.Hz,
			Requests: 240, Rate: 250, ReadFraction: 0.9, Seed: 1,
		},
		Site: Site{
			Containers: 6, DrivesPerContainer: 1, Hydrophones: 6, Standoff: 3 * units.Meter,
			AttackStartFrac: 0.25,
		},
		AttackStopFrac: 0.75, CellWorkers: 1,
	}
}

func (s ClusterSpec) validate() error {
	errs := append(s.Facility.checks(), s.Site.checks(s.DataShards+s.ParityShards)...)
	errs = append(errs,
		valid.In("MaxSpeakers", s.MaxSpeakers, 0, s.Containers),
		valid.AtLeast("AttackStopFrac", s.AttackStopFrac, s.AttackStartFrac))
	for _, c := range s.Cells {
		errs = append(errs, valid.In("Cells", c, 0, s.MaxSpeakers))
	}
	return valid.First("experiment: ClusterSpec", errs...)
}

// ClusterResult is one ladder cell: the serving summary with the given
// number of attacker speakers keyed on mid-run.
type ClusterResult struct {
	Speakers int
	Silenced int // containers driven past servo lock while speakers are on
	Serve    cluster.ServeResult
}

// ClusterSweep runs the attacker ladder: cell s places one point-blank
// speaker at each of the first s containers, keys them on during the
// attack window, and measures availability, durability, goodput, and
// tail latency. Cells fan out over the parallel engine; every cell
// builds its own cluster with seeds derived from (Seed, cell), so
// results are byte-identical at any worker count.
func ClusterSweep(spec ClusterSpec) ([]ClusterResult, error) {
	if spec.MaxSpeakers == 0 {
		spec.MaxSpeakers = spec.Containers
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	tone := sig.NewTone(spec.Freq)
	window := spec.window()
	cells := spec.Cells
	if cells == nil {
		cells = parallel.Indices(spec.MaxSpeakers + 1)
	}
	return parallel.RunObserved(context.Background(), cells, spec.Workers, spec.Metrics,
		func(_ context.Context, _ int, speakers int) (ClusterResult, error) {
			lay := cluster.LineLayout(spec.Containers, spec.Spacing).WithSpeakersAt(tone, parallel.Indices(speakers)...)
			var steps []cluster.ScheduleStep
			if spec.StaggerFrac > 0 {
				steps = staggeredSchedule(speakers, window, spec.AttackStartFrac, spec.StaggerFrac)
			} else {
				on := make([]bool, speakers)
				for i := range on {
					on[i] = true
				}
				steps = []cluster.ScheduleStep{
					{At: time.Duration(float64(window) * spec.AttackStartFrac), Active: on},
				}
				if spec.AttackStopFrac < 1 {
					steps = append(steps, cluster.ScheduleStep{
						At: time.Duration(float64(window) * spec.AttackStopFrac), Active: nil})
				}
			}
			var def *cluster.DefenseSpec
			if spec.Defense {
				arr := sonar.FacilityArray(lay, spec.Hydrophones, spec.Standoff)
				dets := sonar.DetectSchedule(lay, arr, steps, parallel.SeedFor(spec.Seed, 3000+speakers))
				def = &cluster.DefenseSpec{Fixes: sourceFixes(lay, dets)}
				sonar.PublishMetrics(spec.Metrics, dets)
			}
			c, res, err := serveCell(spec.Facility, spec.DrivesPerContainer, lay, steps, def,
				parallel.SeedFor(spec.Seed, speakers), parallel.SeedFor(spec.Seed, 1000+speakers), spec.CellWorkers)
			if err != nil {
				return ClusterResult{}, err
			}
			c.PublishMetrics(spec.Metrics)
			spec.Metrics.Add("experiment.cluster_cells", 1)
			return ClusterResult{Speakers: speakers, Silenced: silencedContainers(lay, speakers), Serve: res}, nil
		})
}

// clusterDriveModel is the drive every cluster container hosts.
func clusterDriveModel() hdd.Model { return hdd.Barracuda500() }

// silencedContainers counts containers whose drives are pushed past the
// servo-lock threshold while all s speakers are on — the attacker's
// effective failure-domain kill count.
func silencedContainers(lay cluster.Layout, speakers int) int {
	if speakers == 0 {
		return 0
	}
	model := clusterDriveModel()
	count := 0
	for ci := range lay.Containers {
		asm, err := lay.Containers[ci].Scenario.Assembly()
		if err != nil {
			continue
		}
		if lay.VibrationAt(ci, asm, model, nil).Amplitude >= model.ServoLockFrac {
			count++
		}
	}
	return count
}

// ClusterReport renders the ladder.
func ClusterReport(rows []ClusterResult) *report.Table {
	tb := report.NewTable(
		"Erasure-coded cluster availability vs attacker speakers (k-of-n, mid-run attack window)",
		"Speakers", "Silenced", "GET avail", "PUT avail", "Degraded reads", "Repairs",
		"Steered", "Evacs", "Goodput MB/s", "P50 ms", "P99 ms")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%d", r.Speakers),
			fmt.Sprintf("%d", r.Silenced),
			fmt.Sprintf("%.1f%%", r.Serve.GetAvailability()*100),
			fmt.Sprintf("%.1f%%", r.Serve.PutAvailability()*100),
			fmt.Sprintf("%d", r.Serve.DegradedReads),
			fmt.Sprintf("%d", r.Serve.RepairWrites),
			fmt.Sprintf("%d", r.Serve.SteeredGets),
			fmt.Sprintf("%d", r.Serve.EvacWrites),
			fmt.Sprintf("%.2f", r.Serve.GoodputMBps),
			fmt.Sprintf("%.2f", float64(r.Serve.P50)/1e6),
			fmt.Sprintf("%.2f", float64(r.Serve.P99)/1e6))
	}
	return tb
}

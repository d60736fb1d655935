package experiment

import (
	"context"
	"fmt"
	"time"

	"deepnote/internal/cluster"
	"deepnote/internal/fleet"
	"deepnote/internal/parallel"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// GeoFleetSpec is the geo-distributed campaign: a multi-facility fleet
// serves one global workload twice — once with attack-aware placement,
// once with the naive locality-greedy layout — while an acoustic blast
// silences a run of containers at one site and the WAN degrades under
// injected faults. The pair of runs shares every seed, so the only
// variable is where the shards live.
type GeoFleetSpec struct {
	// Facility's k-of-n code must fit a site allotment of ceil(n/S)
	// shards inside the parity budget for attack-aware placement to
	// survive a facility loss. Its default workload is busy but below the
	// drives' saturation knee, so the deadline budget is spent on
	// failover, not on queueing backlog. Its Seed seeds only the
	// infrastructure — per-node engines and WAN jitter. The request
	// schedule itself is the traffic tier's reference workload, held
	// fixed so the placement comparison varies only the machinery under
	// it.
	Facility
	// Sites and ContainersPerSite size the fleet.
	Sites, ContainersPerSite int
	// Blast is the attack's footprint: that many contiguous containers of
	// site 0, starting at container 0, each get a point-blank speaker (by
	// default one more than the parity budget, so every naive stripe
	// homed on the attacked site is erased).
	Blast int
	// AttackStart/AttackStop key the speakers (and the WAN faults) on
	// over [AttackStart, AttackStop) of the serving timeline.
	AttackStart, AttackStop time.Duration
	// Deadline is the per-request budget (blasted drives fail slowly, so
	// failover needs room to outlast the grinding waves).
	Deadline time.Duration
	// Workers bounds the placement fan-out (≤ 0 = one per CPU); results
	// are identical for any worker count.
	Workers int
	// CellWorkers bounds the node fan-out inside each fleet (≤ 0 = one
	// per CPU); results never depend on it.
	CellWorkers int
}

// DefaultGeoFleetSpec is the campaign `deepnote fleet` runs with no flags.
func DefaultGeoFleetSpec() GeoFleetSpec {
	return GeoFleetSpec{
		Facility: Facility{
			DataShards: 4, ParityShards: 4, Objects: 48, ObjectSize: 8 << 10,
			Spacing: 2 * units.Meter, Freq: 650 * units.Hz,
			Requests: 800, Rate: 300, ReadFraction: 0.9, Seed: 1,
		},
		Sites: 4, ContainersPerSite: 8,
		Blast: 5, AttackStart: 500 * time.Millisecond, AttackStop: 2 * time.Second,
		Deadline: 2 * time.Second, CellWorkers: 1,
	}
}

func (s GeoFleetSpec) validate() error {
	return valid.First("experiment: GeoFleetSpec", append(s.Facility.checks(),
		valid.AtLeast("Sites", s.Sites, 2),
		valid.AtLeast("ContainersPerSite", s.ContainersPerSite, 1),
		valid.In("Blast", s.Blast, 0, s.ContainersPerSite),
		valid.AtLeast("AttackStart", s.AttackStart, 0),
		valid.Positive("AttackStop-AttackStart", s.AttackStop-s.AttackStart),
		valid.Positive("Deadline", s.Deadline))...)
}

// geoFleetSiteNames label the facilities in reports.
var geoFleetSiteNames = []string{"pacific", "atlantic", "baltic", "coral", "nordic", "tasman"}

// geoFleetFaults is the injected concurrent WAN trouble: the attacked
// site's link to its nearest peer flaps and, with four or more sites, an
// unrelated pair browns out ×4, both over the attack window.
func (s GeoFleetSpec) geoFleetFaults() []fleet.Fault {
	window := s.AttackStop - s.AttackStart
	faults := []fleet.Fault{
		{Kind: fleet.LinkFlap, A: 0, B: 1 % s.Sites, Start: s.AttackStart, Duration: window},
	}
	if s.Sites >= 4 {
		faults = append(faults, fleet.Fault{
			Kind: fleet.Brownout, A: 2, B: 3, Start: s.AttackStart, Duration: window, Factor: 4})
	}
	return faults
}

// GeoFleetResult holds both placements' full ledgers plus the
// attack-window cut where the headline gap lives.
type GeoFleetResult struct {
	Aware, Naive fleet.Result
	// AwareAttack and NaiveAttack re-cut each ledger over exactly
	// [AttackStart, AttackStop).
	AwareAttack, NaiveAttack fleet.WindowStats
}

// GeoFleetRun serves the identical seeded workload under both placements
// while the facility attack and WAN faults play out. The two cells fan
// out over the parallel engine; every seed is shared across cells, so
// the placement policy is the only difference — and the whole result is
// byte-identical at any worker count.
func GeoFleetRun(spec GeoFleetSpec) (GeoFleetResult, error) {
	if err := spec.validate(); err != nil {
		return GeoFleetResult{}, err
	}
	placements := []fleet.Placement{fleet.PlacementAttackAware, fleet.PlacementNaive}
	runs, err := parallel.RunObserved(context.Background(), placements, spec.Workers, spec.Metrics,
		func(_ context.Context, _ int, p fleet.Placement) (fleet.Result, error) {
			tone := sig.NewTone(spec.Freq)
			sites := make([]fleet.SiteSpec, spec.Sites)
			for i := range sites {
				name := fmt.Sprintf("site-%d", i)
				if i < len(geoFleetSiteNames) {
					name = geoFleetSiteNames[i]
				}
				lay := cluster.LineLayout(spec.ContainersPerSite, spec.Spacing)
				if i == 0 {
					lay = lay.WithSpeakersAt(tone, parallel.Indices(spec.Blast)...)
				}
				sites[i] = fleet.SiteSpec{Name: name, Layout: lay}
			}
			f, err := fleet.New(fleet.Config{
				Sites:        sites,
				DataShards:   spec.DataShards,
				ParityShards: spec.ParityShards,
				Objects:      spec.Objects,
				ObjectSize:   spec.ObjectSize,
				Placement:    p,
				WAN:          fleet.WANConfig{Faults: spec.geoFleetFaults()},
				Resilience:   fleet.Resilience{Deadline: spec.Deadline},
				Seed:         cluster.Ptr(spec.Seed),
				Workers:      spec.CellWorkers,
			})
			if err != nil {
				return fleet.Result{}, err
			}
			if err := f.Preload(); err != nil {
				return fleet.Result{}, err
			}
			on := make([]bool, spec.Blast)
			for i := range on {
				on[i] = true
			}
			if err := f.SetAttack(0, []cluster.ScheduleStep{
				{At: spec.AttackStart, Active: on},
				{At: spec.AttackStop, Active: nil},
			}); err != nil {
				return fleet.Result{}, err
			}
			res, err := f.Serve(fleet.TrafficSpec{
				Requests:     spec.Requests,
				Rate:         spec.Rate,
				ReadFraction: cluster.Ptr(spec.ReadFraction),
			})
			if err != nil {
				return fleet.Result{}, err
			}
			f.PublishMetrics(spec.Metrics)
			spec.Metrics.Add("experiment.geofleet_cells", 1)
			return res, nil
		})
	if err != nil {
		return GeoFleetResult{}, err
	}
	out := GeoFleetResult{Aware: runs[0], Naive: runs[1]}
	out.AwareAttack = out.Aware.Window(spec.AttackStart, spec.AttackStop)
	out.NaiveAttack = out.Naive.Window(spec.AttackStart, spec.AttackStop)
	return out, nil
}

// GeoFleetReport renders the aware-vs-naive comparison: whole-run and
// attack-window availability and time-to-verdict tails, plus the
// robustness machinery each placement leaned on.
func GeoFleetReport(res GeoFleetResult) *report.Table {
	tb := report.NewTable(
		"Geo-distributed fleet under facility attack + WAN faults (attack-aware vs naive placement)",
		"Placement", "GET avail", "PUT avail", "P99 ms",
		"Attack GET avail", "Attack P99 ms",
		"Waves", "Hedged", "Shed", "WAN drops", "Opens", "Corrupt")
	row := func(name string, r fleet.Result, w fleet.WindowStats) {
		tb.AddRow(
			name,
			fmt.Sprintf("%.2f%%", r.GetAvailability()*100),
			fmt.Sprintf("%.2f%%", r.PutAvailability()*100),
			fmt.Sprintf("%.1f", float64(r.P99)/1e6),
			fmt.Sprintf("%.2f%%", w.GetAvailability()*100),
			fmt.Sprintf("%.1f", float64(w.P99)/1e6),
			fmt.Sprintf("%d", r.FailoverWaves),
			fmt.Sprintf("%d", r.HedgedRequests),
			fmt.Sprintf("%d", r.ShedRequests),
			fmt.Sprintf("%d", r.WANDrops),
			fmt.Sprintf("%d", r.BreakerOpens),
			fmt.Sprintf("%d", r.CorruptReads))
	}
	row(fleet.PlacementAttackAware.String(), res.Aware, res.AwareAttack)
	row(fleet.PlacementNaive.String(), res.Naive, res.NaiveAttack)
	return tb
}

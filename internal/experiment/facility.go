package experiment

import (
	"time"

	"deepnote/internal/cluster"
	"deepnote/internal/metrics"
	"deepnote/internal/sonar"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// Facility is what the facility campaigns (ClusterSpec, SonarSpec and
// GeoFleetSpec) share: the erasure-coded store, its keyspace, the
// container pitch, the attack tone and the client workload. Each spec
// embeds it, so its fields read as the spec's own (spec.DataShards).
type Facility struct {
	// DataShards/ParityShards set the k-of-n code.
	DataShards, ParityShards int
	// Objects and ObjectSize size the keyspace.
	Objects, ObjectSize int
	// Spacing is the container pitch.
	Spacing units.Distance
	// Freq is the attack tone.
	Freq units.Frequency
	// Requests, Rate, and ReadFraction shape the client workload;
	// ReadFraction 0 is a write-only workload.
	Requests     int
	Rate         float64
	ReadFraction float64
	// Seed is the base seed every run derives its seeds from.
	Seed int64
	// Metrics receives engine and per-layer counters when non-nil.
	Metrics *metrics.Registry
}

func (f Facility) checks() []error {
	return []error{
		valid.AtLeast("DataShards", f.DataShards, 1),
		valid.AtLeast("ParityShards", f.ParityShards, 1),
		valid.AtLeast("Objects", f.Objects, 1),
		valid.AtLeast("ObjectSize", f.ObjectSize, 1),
		valid.Positive("Spacing", f.Spacing),
		valid.Positive("Freq", f.Freq),
		valid.AtLeast("Requests", f.Requests, 1),
		valid.Positive("Rate", f.Rate),
		valid.In("ReadFraction", f.ReadFraction, 0, 1),
	}
}

// window is the nominal client request window: Requests at Rate.
func (f Facility) window() time.Duration {
	return time.Duration(float64(f.Requests) / f.Rate * float64(time.Second))
}

// Site is what the single-site campaigns (ClusterSpec and SonarSpec)
// share on top of Facility: one line of containers, the hydrophone ring
// around it, and when the attacker's speakers key on.
type Site struct {
	// Containers and DrivesPerContainer size the facility.
	Containers, DrivesPerContainer int
	// Hydrophones and Standoff shape the surveillance array: a ring of
	// Hydrophones elements Standoff beyond the farthest container (0
	// places the ring exactly at the facility perimeter).
	Hydrophones int
	Standoff    units.Distance
	// AttackStartFrac places the first key-on in the request window.
	// StaggerFrac, when positive, spaces the rest: speaker i keys on at
	// window·(AttackStartFrac + i·StaggerFrac) and stays on. The attacker
	// escalates one speaker at a time, which is what gives the defense its
	// reaction window. StaggerFrac 0 keys every speaker on at once (no
	// reaction window).
	AttackStartFrac float64
	StaggerFrac     float64
}

// checks lists the Site checks for a code of shards shards per stripe.
func (s Site) checks(shards int) []error {
	return []error{
		// One shard per failure domain.
		valid.AtLeast("Containers", s.Containers, shards),
		valid.AtLeast("DrivesPerContainer", s.DrivesPerContainer, 1),
		valid.AtLeast("Hydrophones", s.Hydrophones, 1),
		valid.AtLeast("Standoff", s.Standoff, 0),
		valid.AtLeast("AttackStartFrac", s.AttackStartFrac, 0),
		valid.AtLeast("StaggerFrac", s.StaggerFrac, 0),
	}
}

// serveCell builds one single-site cell on lay, preloads it, plays the
// attack schedule, applies def when it is non-nil, and serves the
// Facility's workload. storeSeed seeds the store, trafficSeed the
// requests, and workers bounds the drive fan-out.
func serveCell(f Facility, drivesPerContainer int, lay cluster.Layout, steps []cluster.ScheduleStep,
	def *cluster.DefenseSpec, storeSeed, trafficSeed int64, workers int) (*cluster.Cluster, cluster.ServeResult, error) {
	c, err := cluster.New(cluster.Config{
		Layout:             lay,
		DrivesPerContainer: drivesPerContainer,
		DataShards:         f.DataShards,
		ParityShards:       f.ParityShards,
		Objects:            f.Objects,
		ObjectSize:         f.ObjectSize,
		Seed:               cluster.Ptr(storeSeed),
		Workers:            workers,
	})
	if err != nil {
		return nil, cluster.ServeResult{}, err
	}
	if err := c.Preload(); err != nil {
		return nil, cluster.ServeResult{}, err
	}
	c.SetSchedule(steps)
	if def != nil {
		if err := c.SetDefense(*def); err != nil {
			return nil, cluster.ServeResult{}, err
		}
	}
	res, err := c.Serve(cluster.TrafficSpec{
		Requests:     f.Requests,
		Rate:         f.Rate,
		ReadFraction: cluster.Ptr(f.ReadFraction),
		Seed:         cluster.Ptr(trafficSeed),
	})
	return c, res, err
}

// staggeredSchedule builds the cumulative key-on ladder: speaker i keys
// on at window·(startFrac + i·staggerFrac), and nothing ever keys off —
// the sustained-escalation attack the availability cliff needs.
func staggeredSchedule(speakers int, window time.Duration, startFrac, staggerFrac float64) []cluster.ScheduleStep {
	steps := make([]cluster.ScheduleStep, 0, speakers)
	for i := 0; i < speakers; i++ {
		on := make([]bool, speakers)
		for j := 0; j <= i; j++ {
			on[j] = true
		}
		at := time.Duration(float64(window) * (startFrac + float64(i)*staggerFrac))
		steps = append(steps, cluster.ScheduleStep{At: at, Active: on})
	}
	return steps
}

// sourceFixes turns each detection that produced a fix into the source
// fix the defense steers by, tagged with the detected speaker's tone.
func sourceFixes(lay cluster.Layout, dets []sonar.Detection) []cluster.SourceFix {
	var fixes []cluster.SourceFix
	for _, d := range dets {
		if d.OK {
			fixes = append(fixes, cluster.SourceFix{
				At: d.FixAt, Pos: d.Est.Pos, Err: d.Est.ErrRadius, Tone: lay.Speakers[d.Speaker].Tone,
			})
		}
	}
	return fixes
}

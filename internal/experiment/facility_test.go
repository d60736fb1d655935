package experiment

import (
	"math"
	"strings"
	"testing"

	"deepnote/internal/metrics"
	"deepnote/internal/units"
)

// badField sets one shared field to a value its check rejects.
type badField struct {
	field    string
	facility func(*Facility)
	site     func(*Site) // nil: a Facility row
}

func (b badField) apply(f *Facility, s *Site) {
	if b.site != nil {
		b.site(s)
	} else {
		b.facility(f)
	}
}

// Every facility campaign runs the shared Facility checks, and the
// single-site ones the Site checks too, before any cell: each bad value
// fails the run with an error naming the spec and the field, and nothing
// reaches the metrics registry.
func TestFacilityCampaignsRejectSharedBadValues(t *testing.T) {
	edits := []badField{
		{"DataShards", func(f *Facility) { f.DataShards = 0 }, nil},
		{"ParityShards", func(f *Facility) { f.ParityShards = 0 }, nil},
		{"Objects", func(f *Facility) { f.Objects = 0 }, nil},
		{"ObjectSize", func(f *Facility) { f.ObjectSize = 0 }, nil},
		{"Spacing", func(f *Facility) { f.Spacing = units.Distance(math.NaN()) }, nil},
		{"Freq", func(f *Facility) { f.Freq = 0 }, nil},
		{"Requests", func(f *Facility) { f.Requests = 0 }, nil},
		{"Rate", func(f *Facility) { f.Rate = -5 }, nil},
		{"ReadFraction", func(f *Facility) { f.ReadFraction = 1.5 }, nil},
		{"Containers", nil, func(s *Site) { s.Containers = 0 }},
		{"DrivesPerContainer", nil, func(s *Site) { s.DrivesPerContainer = 0 }},
		{"Hydrophones", nil, func(s *Site) { s.Hydrophones = 0 }},
		{"Standoff", nil, func(s *Site) { s.Standoff = units.Distance(math.NaN()) }},
		{"AttackStartFrac", nil, func(s *Site) { s.AttackStartFrac = -0.1 }},
		{"StaggerFrac", nil, func(s *Site) { s.StaggerFrac = -0.1 }},
	}
	for _, c := range []struct {
		spec string
		site bool
		run  func(e badField, reg *metrics.Registry) error
	}{
		{"ClusterSpec", true, func(e badField, reg *metrics.Registry) error {
			spec := DefaultClusterSpec()
			spec.Metrics = reg
			e.apply(&spec.Facility, &spec.Site)
			_, err := ClusterSweep(spec)
			return err
		}},
		{"SonarSpec", true, func(e badField, reg *metrics.Registry) error {
			spec := DefaultSonarSpec()
			spec.Metrics = reg
			e.apply(&spec.Facility, &spec.Site)
			_, err := SonarRun(spec)
			return err
		}},
		{"GeoFleetSpec", false, func(e badField, reg *metrics.Registry) error {
			spec := DefaultGeoFleetSpec()
			spec.Metrics = reg
			e.apply(&spec.Facility, nil)
			_, err := GeoFleetRun(spec)
			return err
		}},
	} {
		for _, e := range edits {
			if e.site != nil && !c.site {
				continue
			}
			reg := metrics.NewRegistry()
			err := c.run(e, reg)
			want := "experiment: " + c.spec + "." + e.field + " "
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s with a bad %s: error %v; want one starting %q", c.spec, e.field, err, want)
			}
			if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) > 0 {
				t.Errorf("%s with a bad %s published metrics: %v", c.spec, e.field, snap.Counters)
			}
		}
	}
}

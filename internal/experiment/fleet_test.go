package experiment

import (
	"math"
	"strings"
	"testing"

	"deepnote/internal/cluster"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

func TestFleetNoAttackFullyAvailable(t *testing.T) {
	r, err := FleetAvailability(DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if r.Availability != 1 || r.DrivesFaulting != 0 {
		t.Fatalf("idle facility: %+v", r)
	}
}

func TestFleetOneSpeakerOneContainer(t *testing.T) {
	spec := DefaultFleetSpec()
	spec.Speakers = 1
	r, err := FleetAvailability(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The targeted container loses all five drives; 2 m spacing protects
	// the neighbours (spreading from 1 cm reference is ≈46 dB).
	if r.DrivesFaulting != 5 {
		t.Fatalf("one speaker should take exactly one container: %+v", r)
	}
	if r.Availability != 0.75 {
		t.Fatalf("availability = %v, want 0.75", r.Availability)
	}
}

func TestFleetSweepMonotone(t *testing.T) {
	rows, err := FleetSweep(DefaultFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Availability > rows[i-1].Availability {
			t.Fatalf("availability rose with more speakers: %+v then %+v", rows[i-1], rows[i])
		}
	}
	if last := rows[len(rows)-1]; last.Availability != 0 {
		t.Fatalf("speaker per container should zero the facility: %+v", last)
	}
	rep := FleetReport(rows).String()
	if !strings.Contains(rep, "Availability") {
		t.Fatalf("report rendering:\n%s", rep)
	}
}

// TestFleetRejectsBadSpec: an attacker with more speakers than containers
// (the model's geometry has no container left to target) and a facility
// with no containers, drives or spacing must fail instead of being
// clamped or replaced by a default.
func TestFleetRejectsBadSpec(t *testing.T) {
	for name, edit := range map[string]func(*FleetSpec){
		"over-provisioned speakers": func(s *FleetSpec) { s.Speakers = s.Containers + 3 },
		"negative speakers":         func(s *FleetSpec) { s.Speakers = -1 },
		"zero containers":           func(s *FleetSpec) { s.Containers = 0 },
		"zero drives":               func(s *FleetSpec) { s.DrivesPerContainer = 0 },
		"zero spacing":              func(s *FleetSpec) { s.ContainerSpacing = 0 },
		"NaN spacing":               func(s *FleetSpec) { s.ContainerSpacing = units.Distance(math.NaN()) },
	} {
		spec := DefaultFleetSpec()
		edit(&spec)
		if _, err := FleetAvailability(spec); err == nil {
			t.Errorf("%s: FleetAvailability accepted %+v", name, spec)
		}
	}
}

func TestFleetTightSpacingLeaksAcrossContainers(t *testing.T) {
	// If containers sit very close together, one speaker's spill-over
	// reaches the neighbour too.
	spec := DefaultFleetSpec()
	spec.Speakers = 1
	spec.ContainerSpacing = 4 * units.Centimeter
	r, err := FleetAvailability(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.DrivesFaulting <= 5 {
		t.Fatalf("4 cm spacing should leak into the next container: %+v", r)
	}
}

// TestFleetLayoutDistancesMatchHopModel pins the regression baseline for
// the layout-based refactor: in a line layout the geometric distance
// from container c to the nearest of k co-located speakers is exactly
// the old hop-count model's (c−k+1)·spacing, with targeted containers
// clamped to the 1 cm point-blank geometry.
func TestFleetLayoutDistancesMatchHopModel(t *testing.T) {
	const containers, speakers = 6, 2
	spacing := 2 * units.Meter
	lay := cluster.LineLayout(containers, spacing).
		WithSpeakersAt(sig.NewTone(650*units.Hz), 0, 1)
	for c := 0; c < containers; c++ {
		got, ok := lay.NearestSpeakerDistance(c)
		if !ok {
			t.Fatalf("container %d: no speakers in layout", c)
		}
		want := cluster.PointBlank
		if c >= speakers {
			want = spacing * units.Distance(c-speakers+1)
		}
		if got != want {
			t.Fatalf("container %d: layout distance %v, hop model %v", c, got, want)
		}
	}
}

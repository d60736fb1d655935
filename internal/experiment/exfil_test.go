package experiment

import (
	"reflect"
	"strings"
	"testing"

	"deepnote/internal/metrics"
	"deepnote/internal/units"
)

// exfilTestSpec is a trimmed spec that keeps the unit test fast while
// still exercising every cell kind; the CLI runs the full default sweep.
func exfilTestSpec(workers int, reg *metrics.Registry) ExfilSpec {
	return ExfilSpec{
		Distances:    []units.Distance{5 * units.Meter, 20 * units.Meter},
		Depths:       []units.Distance{0},
		SymbolRates:  []float64{32},
		Frames:       2,
		DetectFrames: 2,
		Seed:         5,
		Workers:      workers,
		Metrics:      reg,
	}
}

// TestExfilRunAcceptance pins the PR's acceptance floor on the trimmed
// sweep: bit-exact payload recovery at ≥2 distances and ≥3 ambient
// backgrounds, a positive goodput headline, and a populated defense
// table where FSK leaks nothing.
func TestExfilRunAcceptance(t *testing.T) {
	res, err := ExfilRun(exfilTestSpec(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.RecoveredDistances < 2 {
		t.Errorf("bit-exact recovery at %d distances, want ≥ 2", res.RecoveredDistances)
	}
	if res.RecoveredAmbients < 3 {
		t.Errorf("bit-exact recovery over %d ambients, want ≥ 3", res.RecoveredAmbients)
	}
	if res.BestGoodputBps <= 0 {
		t.Errorf("best goodput %.2f b/s, want > 0", res.BestGoodputBps)
	}
	if len(res.Capacity) != 10 || len(res.Rates) != 2 || len(res.Detect) != 10 {
		t.Fatalf("cell counts capacity=%d rates=%d detect=%d", len(res.Capacity), len(res.Rates), len(res.Detect))
	}
	for _, r := range res.Detect {
		if r.Cell.Scheme.String() == "fsk" && r.Detect.BytesLeaked != 0 {
			t.Errorf("FSK over %v leaked %d bytes before detection, want 0", r.Cell.Ambient, r.Detect.BytesLeaked)
		}
		if r.Detect.FalsePositives != 0 {
			t.Errorf("%v over %v: %d lead-in false positives", r.Cell.Scheme, r.Cell.Ambient, r.Detect.FalsePositives)
		}
	}
}

// TestExfilRunDeterministicAcrossWorkers is the property
// TestGoldenOutputs in cmd/deepnote leans on: byte-identical results at
// any worker count.
func TestExfilRunDeterministicAcrossWorkers(t *testing.T) {
	r1, err := ExfilRun(exfilTestSpec(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := ExfilRun(exfilTestSpec(4, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r4) {
		t.Fatal("results diverge between workers=1 and workers=4")
	}
	if ExfilCapacityReport(r1).String() != ExfilCapacityReport(r4).String() ||
		ExfilRateReport(r1).String() != ExfilRateReport(r4).String() ||
		ExfilDetectReport(r1).String() != ExfilDetectReport(r4).String() {
		t.Fatal("rendered tables diverge between workers=1 and workers=4")
	}
}

// TestExfilReportsAndMetrics checks the tables carry the sweep axes and
// the registry receives the experiment counters.
func TestExfilReportsAndMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	res, err := ExfilRun(exfilTestSpec(0, reg))
	if err != nil {
		t.Fatal(err)
	}
	cap := ExfilCapacityReport(res).String()
	for _, want := range []string{"thermal-creak", "facility-pump", "Goodput", "20"} {
		if !strings.Contains(cap, want) {
			t.Errorf("capacity table missing %q:\n%s", want, cap)
		}
	}
	det := ExfilDetectReport(res).String()
	for _, want := range []string{"fsk", "ook", "Leaked"} {
		if !strings.Contains(det, want) {
			t.Errorf("detect table missing %q:\n%s", want, det)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["experiment.exfil_runs"]; got != 1 {
		t.Errorf("experiment.exfil_runs = %d, want 1", got)
	}
	if got := snap.Counters["experiment.exfil_cells"]; got != 22 {
		t.Errorf("experiment.exfil_cells = %d, want 22", got)
	}
	if snap.Counters["exfil_detect.runs"] != 10 {
		t.Errorf("exfil_detect.runs = %d, want 10", snap.Counters["exfil_detect.runs"])
	}
}

// TestExfilRunRejectsBadGeometry: a range that is not positive, a depth
// above the surface or a frame count below 1 fails before any cell runs,
// naming the field.
func TestExfilRunRejectsBadGeometry(t *testing.T) {
	with := func(edit func(*ExfilSpec)) ExfilSpec {
		s := DefaultExfilSpec()
		edit(&s)
		return s
	}
	for _, c := range []struct {
		spec  ExfilSpec
		field string
	}{
		{with(func(s *ExfilSpec) { s.Distances = []units.Distance{-3} }), "Distances[0]"},
		{with(func(s *ExfilSpec) { s.Distances = []units.Distance{0} }), "Distances[0]"},
		{with(func(s *ExfilSpec) { s.Distances = []units.Distance{20, -3} }), "Distances[1]"},
		{with(func(s *ExfilSpec) { s.Depths = []units.Distance{-1} }), "Depths[0]"},
		{with(func(s *ExfilSpec) { s.Frames = 0 }), "Frames"},
		{with(func(s *ExfilSpec) { s.DetectFrames = 0 }), "DetectFrames"},
	} {
		res, err := ExfilRun(c.spec)
		if err == nil {
			t.Fatalf("%+v: ran %d capacity cells, want an error", c.spec, len(res.Capacity))
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: error %q does not name %s", c.spec, err, c.field)
		}
	}
}

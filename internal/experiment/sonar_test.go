package experiment

import (
	"math"
	"reflect"
	"testing"
	"time"

	"deepnote/internal/units"
)

// TestSonarRunClosesTheLoop: the headline acceptance — under the staged
// one-past-the-cliff escalation, the localization-driven defense must
// measurably beat defense-off on GET availability, every key-on must be
// detected and localized, and nothing may be served corrupt.
func TestSonarRunClosesTheLoop(t *testing.T) {
	res, err := SonarRun(DefaultSonarSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Detections) != 3 {
		t.Fatalf("got %d detections, want 3 (parity+1 staged key-ons)", len(res.Detections))
	}
	for i, d := range res.Detections {
		if !d.OK {
			t.Fatalf("key-on %d produced no fix", i)
		}
		if d.Latency <= 0 {
			t.Fatalf("key-on %d: non-positive detection latency %v", i, d.Latency)
		}
		if miss := res.MissM[i]; miss < 0 || miss > 1.5 {
			t.Fatalf("key-on %d localized %.2f m off the true speaker", i, miss)
		}
	}
	if res.Off.GetFailures == 0 {
		t.Fatal("defense-off run never fell off the availability cliff")
	}
	if res.Off.CorruptReads != 0 || res.On.CorruptReads != 0 {
		t.Fatalf("corrupt reads: off=%d on=%d", res.Off.CorruptReads, res.On.CorruptReads)
	}
	off, on := res.Off.GetAvailability(), res.On.GetAvailability()
	if on-off < 0.05 {
		t.Fatalf("defense improvement not measurable: off %.4f, on %.4f", off, on)
	}
	if res.EvacsPlanned == 0 || res.On.EvacWrites != res.EvacsPlanned {
		t.Fatalf("evac accounting: planned %d, wrote %d", res.EvacsPlanned, res.On.EvacWrites)
	}
}

// TestSonarRangeSweepDegradesWithRange: the probe sweep must detect and
// localize at short range, and fix quality must not be reported better
// at the far end than point-blank.
func TestSonarRangeSweepDegradesWithRange(t *testing.T) {
	spec := DefaultSonarSpec()
	spec.Requests = 60
	res, err := SonarRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probes) == 0 {
		t.Fatal("no range probes")
	}
	first, last := res.Probes[0], res.Probes[len(res.Probes)-1]
	if !first.OK || first.MissM > 1 {
		t.Fatalf("nearest probe (%v): OK=%v miss=%.2f m", first.Range, first.OK, first.MissM)
	}
	if last.OK && last.ErrRadius < first.ErrRadius {
		t.Fatalf("fix claims to improve with range: %.3f m at %v vs %.3f m at %v",
			float64(last.ErrRadius), last.Range, float64(first.ErrRadius), first.Range)
	}
}

// TestSonarRunDeterministicAcrossWorkers: the whole campaign result —
// detections, probes, both serving runs — must be byte-identical at any
// drive fan-out.
func TestSonarRunDeterministicAcrossWorkers(t *testing.T) {
	spec := DefaultSonarSpec()
	spec.Workers = 1
	base, err := SonarRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		spec.Workers = w
		res, err := SonarRun(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, res) {
			t.Fatalf("workers=%d diverged from workers=1", w)
		}
	}
}

// TestSpecZeroFieldsHonored: zero is a value in the campaign specs —
// explicit zeros configure meaningful scenarios (simultaneous key-ons, a
// hydrophone ring at the facility perimeter, a write-only mix, an attack
// from the first request) and pass validation as given.
func TestSpecZeroFieldsHonored(t *testing.T) {
	s := DefaultSonarSpec()
	s.StaggerFrac, s.Standoff, s.ReadFraction, s.AttackStartFrac, s.Margin, s.React = 0, 0, 0, 0, 0, 0
	if err := s.validate(); err != nil {
		t.Fatal(err)
	}
	c := DefaultClusterSpec()
	c.Standoff, c.ReadFraction, c.AttackStartFrac, c.MaxSpeakers = 0, 0, 0, 0
	if err := c.validate(); err != nil {
		t.Fatal(err)
	}
	// A zero stagger collapses the escalation: every key-on lands at the
	// same instant, leaving the defense no reaction window.
	steps := staggeredSchedule(3, time.Second, 0.25, 0)
	for _, st := range steps {
		if st.At != 250*time.Millisecond {
			t.Fatalf("zero stagger: key-on at %v, want all at 250ms", st.At)
		}
	}
}

// TestSonarRunRejectsBadSpec: a hydrophone count below one, a non-finite
// or negative standoff, or more speakers than containers must fail before
// the run instead of being replaced by a default or clamped.
func TestSonarRunRejectsBadSpec(t *testing.T) {
	for name, edit := range map[string]func(*SonarSpec){
		"zero hydrophones":     func(s *SonarSpec) { s.Hydrophones = 0 },
		"negative hydrophones": func(s *SonarSpec) { s.Hydrophones = -3 },
		"NaN standoff":         func(s *SonarSpec) { s.Standoff = units.Distance(math.NaN()) },
		"Inf standoff":         func(s *SonarSpec) { s.Standoff = units.Distance(math.Inf(1)) },
		"negative standoff":    func(s *SonarSpec) { s.Standoff = -1 * units.Meter },
		"too many speakers":    func(s *SonarSpec) { s.Speakers = 99 },
		"negative rate":        func(s *SonarSpec) { s.Rate = -5 },
	} {
		spec := DefaultSonarSpec()
		edit(&spec)
		if _, err := SonarRun(spec); err == nil {
			t.Errorf("%s: SonarRun accepted %+v", name, spec)
		}
	}
}

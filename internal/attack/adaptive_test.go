package attack

import (
	"strings"
	"testing"

	"deepnote/internal/core"
	"deepnote/internal/units"
)

func TestAdaptiveFindsDevastatingToneWithinBudget(t *testing.T) {
	for _, s := range []core.Scenario{core.Scenario2, core.Scenario3} {
		res, err := Adaptive{Scenario: s, Budget: 25}.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Probes) > 25 {
			t.Fatalf("%v: budget exceeded: %d probes", s, len(res.Probes))
		}
		if res.Best.Degradation < 0.9 {
			t.Fatalf("%v: best degradation %.2f at %v, want ≥0.9",
				s, res.Best.Degradation, res.Best.Freq)
		}
		if res.Best.Freq < 250 || res.Best.Freq > 2000 {
			t.Fatalf("%v: best tone %v outside the physical band", s, res.Best.Freq)
		}
	}
}

func TestAdaptiveCheaperThanFullSweep(t *testing.T) {
	res, err := Adaptive{Budget: 25}.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's full coarse sweep alone covers (16900-100)/200 ≈ 85
	// dwell points; the adaptive attacker should use far fewer.
	if len(res.Probes) >= 40 {
		t.Fatalf("adaptive used %d probes", len(res.Probes))
	}
}

func TestAdaptiveAgainstStandoffTargetFindsNothing(t *testing.T) {
	// At 25 cm only mild write degradation exists anywhere in the band;
	// the attacker's best find must reflect that honestly.
	res, err := Adaptive{Budget: 20}.search(25 * units.Centimeter)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Degradation > 0.5 {
		t.Fatalf("standoff attacker claims %.2f degradation", res.Best.Degradation)
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	a, err := Adaptive{Budget: 15}.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Adaptive{Budget: 15}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if a.Best != b.Best || len(a.Probes) != len(b.Probes) {
		t.Fatal("adaptive search not reproducible")
	}
}

// TestAdaptiveRejectsEmptyBudget: a budget below one probe is an error,
// not a silent default, and no probe runs.
func TestAdaptiveRejectsEmptyBudget(t *testing.T) {
	for _, budget := range []int{0, -3} {
		res, err := Adaptive{Scenario: core.Scenario2, Budget: budget}.Run()
		if err == nil {
			t.Fatalf("budget %d: ran %d probes, want an error", budget, len(res.Probes))
		}
		if !strings.Contains(err.Error(), "Budget") {
			t.Errorf("budget %d: error %q does not name the budget", budget, err)
		}
	}
}

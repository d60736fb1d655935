package deepnote

import (
	"strings"
	"testing"
	"time"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	rig, err := NewRig(Scenario2, 1*Centimeter, 1)
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := RunFIO(rig, SeqWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.ThroughputMBps() < 20 {
		t.Fatalf("quiet throughput %.1f, want ≈22.7", quiet.ThroughputMBps())
	}
	rig.ApplyTone(Tone(650 * Hz))
	attacked, err := RunFIO(rig, SeqWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !attacked.NoResponse {
		t.Fatalf("650 Hz at 1 cm should zero the drive, got %.1f MB/s", attacked.ThroughputMBps())
	}
	rig.Silence()
	recovered, err := RunFIO(rig, SeqWrite, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.ThroughputMBps() < 20 {
		t.Fatalf("drive should recover after attack: %.1f MB/s", recovered.ThroughputMBps())
	}
}

func TestFacadeCrashTest(t *testing.T) {
	o, err := CrashTest(TargetExt4)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Crashed {
		t.Fatal("ext4 should crash")
	}
	if s := o.TimeToCrash.Seconds(); s < 70 || s > 95 {
		t.Fatalf("time to crash %.1f s, want ≈80", s)
	}
}

func TestFacadeStack(t *testing.T) {
	rig, err := NewRig(Scenario2, 1*Centimeter, 1)
	if err != nil {
		t.Fatal(err)
	}
	fs, db, srv, err := NewStack(rig, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := srv.RunCommand("ls"); err != nil {
		t.Fatal(err)
	}
	if aborted, _ := fs.Aborted(); aborted {
		t.Fatal("fresh stack aborted")
	}
}

func TestFacadeDefenses(t *testing.T) {
	tb, err := NewTestbed(Scenario2, 1*Centimeter)
	if err != nil {
		t.Fatal(err)
	}
	evs := EvaluateDefenses(tb)
	if len(evs) < 4 {
		t.Fatalf("expected at least 4 defenses, got %d", len(evs))
	}
	for _, ev := range evs {
		if ev.PeakRatioAfter >= ev.PeakRatioBefore {
			t.Errorf("%s did not help", ev.Defense)
		}
	}
}

func TestFacadeRangeTest(t *testing.T) {
	rows, err := RangeTest(Scenario2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !rows[1].WriteNoResponse {
		t.Fatal("1 cm should be no-response")
	}
}

// TestFacadeAdaptiveAttackRejectsEmptyBudget: a budget below one probe is
// an error, not a silent default, and no probe runs.
func TestFacadeAdaptiveAttackRejectsEmptyBudget(t *testing.T) {
	for _, budget := range []int{0, -3} {
		res, err := AdaptiveAttack(Scenario2, budget)
		if err == nil {
			t.Fatalf("budget %d: ran %d probes, want an error", budget, len(res.Probes))
		}
		if !strings.Contains(err.Error(), "Budget") {
			t.Errorf("budget %d: error %q does not name the budget", budget, err)
		}
	}
}

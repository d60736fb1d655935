package deepnote

import (
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
	rig.Clock.Sleep(time.Second)
	srv.Step()
	if srv.PageIns != 1 || srv.PageInErrors != 0 {
		t.Fatalf("page-ins %d, errors %d; want one clean page-in", srv.PageIns, srv.PageInErrors)
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

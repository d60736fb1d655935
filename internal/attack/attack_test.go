package attack

import (
	"strings"
	"testing"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

func TestSweepFindsVulnerableBand(t *testing.T) {
	res, _ := scenario2Sweep(t)
	if len(res.Bands) == 0 {
		t.Fatal("sweep found no vulnerable bands")
	}
	band := res.Bands[0]
	if band.Low > 650*units.Hz || band.High < 650*units.Hz {
		t.Fatalf("650 Hz not in detected band %v", band)
	}
	if band.Low < 200*units.Hz || band.Low > 500*units.Hz {
		t.Errorf("band low edge %v, want ≈300 Hz", band.Low)
	}
	// The refinement pass must have added fine-step points.
	plan := sig.PaperSweep()
	fine := 0
	for _, p := range res.Points {
		if int64(p.Freq)%int64(plan.CoarseStep) != int64(plan.Start)%int64(plan.CoarseStep) {
			fine++
		}
	}
	if fine == 0 {
		t.Error("no refinement points recorded")
	}
}

func TestSweepReadBandInsideWriteBand(t *testing.T) {
	s := Sweeper{Scenario: core.Scenario3}
	write, err := s.Run(fio.SeqWrite)
	if err != nil {
		t.Fatal(err)
	}
	read, err := s.Run(fio.SeqRead)
	if err != nil {
		t.Fatal(err)
	}
	if len(write.Bands) == 0 || len(read.Bands) == 0 {
		t.Fatal("bands missing")
	}
	// Reads tolerate more: the read band must not extend beyond the
	// write band on either side (allowing one fine step of slack).
	slack := sig.PaperSweep().FineStep
	if read.Bands[0].Low+slack < write.Bands[0].Low {
		t.Errorf("read band low %v extends below write band low %v", read.Bands[0].Low, write.Bands[0].Low)
	}
	last := len(read.Bands) - 1
	lastW := len(write.Bands) - 1
	if read.Bands[last].High > write.Bands[lastW].High+slack {
		t.Errorf("read band high %v extends above write band high %v", read.Bands[last].High, write.Bands[lastW].High)
	}
}

func TestSweepPointDegradation(t *testing.T) {
	p := SweepPoint{ThroughputMBps: 5, Baseline: 20}
	if got := p.Degradation(); got != 0.75 {
		t.Fatalf("degradation = %v", got)
	}
	if (SweepPoint{ThroughputMBps: 25, Baseline: 20}).Degradation() != 0 {
		t.Fatal("negative degradation should clamp to 0")
	}
	if (SweepPoint{Baseline: 0}).Degradation() != 0 {
		t.Fatal("zero baseline should yield 0")
	}
}

func TestRangeTestReproducesTable1Shape(t *testing.T) {
	rows, err := RangeTest{}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7 (baseline + 6 distances)", len(rows))
	}
	base := rows[0]
	if base.Distance != 0 || base.ReadMBps < 16 || base.WriteMBps < 20 {
		t.Fatalf("baseline row wrong: %+v", base)
	}
	at1 := rows[1]
	if !at1.ReadNoResponse || !at1.WriteNoResponse {
		t.Fatalf("1 cm should be no-response: %+v", at1)
	}
	if at1.ReadLatMs >= 0 || at1.WriteLatMs >= 0 {
		t.Fatal("no-response rows must carry negative latency markers")
	}
	at25 := rows[6]
	if at25.WriteMBps < base.WriteMBps*0.9 {
		t.Fatalf("25 cm write %v should be near baseline %v", at25.WriteMBps, base.WriteMBps)
	}
	// Write throughput is monotone non-decreasing with distance.
	for i := 2; i < len(rows); i++ {
		if rows[i].WriteMBps+0.5 < rows[i-1].WriteMBps {
			t.Fatalf("write throughput not recovering with distance: %+v then %+v", rows[i-1], rows[i])
		}
	}
}

func TestMaxEffectiveDistance(t *testing.T) {
	rows, err := RangeTest{}.Run()
	if err != nil {
		t.Fatal(err)
	}
	d, found := MaxEffectiveDistance(rows, 0.05)
	if !found {
		t.Fatal("no effective distance found")
	}
	// The paper's maximum effective distance is 25 cm; our model keeps a
	// measurable loss out to at least 15 cm.
	if d < 15*units.Centimeter {
		t.Fatalf("max effective distance %v, want ≥ 15 cm", d)
	}
	if _, found := MaxEffectiveDistance(nil, 0.1); found {
		t.Fatal("empty rows should not find a distance")
	}
}

func TestProlongedAttackCrashesAllTargets(t *testing.T) {
	// Table 3: all three stacks crash with ≈80 s times; the error
	// signatures match the paper's observations.
	p := ProlongedAttack{}
	outcomes, err := p.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 3 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	signatures := map[CrashTarget]string{
		TargetExt4:    "error -5",
		TargetUbuntu:  "kernel panic",
		TargetRocksDB: "sync_without_flush",
	}
	for _, o := range outcomes {
		if !o.Crashed {
			t.Errorf("%s did not crash", o.Target)
			continue
		}
		ttc := o.TimeToCrash.Seconds()
		if ttc < 70 || ttc > 95 {
			t.Errorf("%s time to crash = %.1fs, want ≈80s", o.Target, ttc)
		}
		if want := signatures[o.Target]; !strings.Contains(o.ErrorOutput, want) {
			t.Errorf("%s error %q missing signature %q", o.Target, o.ErrorOutput, want)
		}
	}
}

func TestProlongedAttackUnknownTarget(t *testing.T) {
	if _, err := (ProlongedAttack{}).Run("notepad"); err == nil {
		t.Fatal("unknown target accepted")
	}
}

func TestNoCrashWithoutAttackEnergy(t *testing.T) {
	// At 25 cm and a safe frequency the stack must survive the window.
	o, err := ProlongedAttack{}.run(TargetExt4, hold{freq: 8000 * units.Hz, distance: 25 * units.Centimeter, timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if o.Crashed {
		t.Fatalf("ext4 crashed under harmless tone: %+v", o)
	}
}

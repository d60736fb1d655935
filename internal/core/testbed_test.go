package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"deepnote/internal/fio"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

func TestScenarioAssemblies(t *testing.T) {
	for _, s := range []Scenario{Scenario1, Scenario2, Scenario3} {
		asm, err := s.Assembly()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := asm.Validate(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	if _, err := Scenario(0).Assembly(); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
	if Scenario1.String() == "" || Scenario(9).String() == "" {
		t.Fatal("scenario names must render")
	}
}

func TestScenario1HasNoTower(t *testing.T) {
	asm, _ := Scenario1.Assembly()
	if asm.Mount.Tower != nil {
		t.Fatal("scenario 1 mounts the drive on the container floor")
	}
	asm2, _ := Scenario2.Assembly()
	if asm2.Mount.Tower == nil || asm2.Mount.Slot != 1 {
		t.Fatal("scenario 2 mounts the drive in the tower's second level")
	}
	if !strings.Contains(asm2.Container.Name, "plastic") {
		t.Fatal("scenario 2 uses the plastic container")
	}
	asm3, _ := Scenario3.Assembly()
	if !strings.Contains(asm3.Container.Name, "aluminum") {
		t.Fatal("scenario 3 uses the aluminum container")
	}
}

func TestNewTestbedValidates(t *testing.T) {
	if _, err := NewTestbed(Scenario2, 1*units.Centimeter); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTestbed(Scenario2, 0); err == nil {
		t.Fatal("expected error for zero distance")
	}
	if _, err := NewTestbed(Scenario(42), 1*units.Centimeter); err == nil {
		t.Fatal("expected error for unknown scenario")
	}
}

func TestVibrationForSilence(t *testing.T) {
	tb, _ := NewTestbed(Scenario2, 1*units.Centimeter)
	if v := tb.VibrationFor(sig.Tone{Freq: 650, Amplitude: 0}); v.Amplitude != 0 {
		t.Fatalf("silent tone produced vibration %+v", v)
	}
	if v := tb.VibrationFor(sig.Tone{Freq: 0, Amplitude: 1}); v.Amplitude != 0 {
		t.Fatalf("zero-frequency tone produced vibration %+v", v)
	}
}

func TestVibrationScalesWithDistance(t *testing.T) {
	tone := sig.NewTone(650 * units.Hz)
	prev := math.Inf(1)
	for _, cm := range []float64{1, 5, 10, 15, 20, 25} {
		tb, err := NewTestbed(Scenario2, units.Distance(cm)*units.Centimeter)
		if err != nil {
			t.Fatal(err)
		}
		a := tb.VibrationFor(tone).Amplitude
		if a >= prev {
			t.Fatalf("amplitude not decreasing at %v cm: %v >= %v", cm, a, prev)
		}
		prev = a
	}
}

func TestVulnerableBandsMatchPaper(t *testing.T) {
	// §4.1: throughput losses occur in all three scenarios between 300 Hz
	// and 1.7 kHz; the aluminum container (Scenario 3) is effective for
	// writes from 300 Hz to 1.3 kHz and recovers above; everything is
	// safe below ~250 Hz and above ~2 kHz.
	for _, s := range []Scenario{Scenario1, Scenario2, Scenario3} {
		tb, err := NewTestbed(s, 1*units.Centimeter)
		if err != nil {
			t.Fatal(err)
		}
		// Write faults occur (ratio ≥ 1) across the core band.
		for _, f := range []units.Frequency{400, 650, 1000} {
			if r := tb.OffTrackRatio(f); r < 1 {
				t.Errorf("%v: off-track ratio %0.2f at %v, want ≥ 1 (vulnerable)", s, r, f)
			}
		}
		// Safe far outside the band.
		for _, f := range []units.Frequency{100, 200, 3000, 8000, 16900} {
			if r := tb.OffTrackRatio(f); r >= 1 {
				t.Errorf("%v: off-track ratio %0.2f at %v, want < 1 (safe)", s, r, f)
			}
		}
	}
	// Material difference: plastic still vulnerable at 1.5 kHz, aluminum
	// recovered (paper: metal band tops out at 1.3 kHz, plastic at 1.7 kHz).
	p, _ := NewTestbed(Scenario2, 1*units.Centimeter)
	a, _ := NewTestbed(Scenario3, 1*units.Centimeter)
	if p.OffTrackRatio(1500) < 1 {
		t.Error("plastic scenario should still fault writes at 1.5 kHz")
	}
	if a.OffTrackRatio(1500) >= 1 {
		t.Error("aluminum scenario should have recovered by 1.5 kHz")
	}
}

func TestIncidentSPLMatchesPaperOperatingPoint(t *testing.T) {
	tb, _ := NewTestbed(Scenario2, 1*units.Centimeter)
	spl := tb.IncidentSPL(sig.NewTone(650 * units.Hz))
	if math.Abs(spl.DB-140) > 0.01 {
		t.Fatalf("incident SPL = %v, want 140 dB re 1µPa", spl.DB)
	}
}

func TestRigTable1Shape(t *testing.T) {
	// The distance profile of Table 1 (650 Hz, Scenario 2) — asserting the
	// qualitative rows: dead ≤5 cm, write-only degradation 10–15 cm,
	// near-normal ≥20 cm.
	tone := sig.NewTone(650 * units.Hz)
	type row struct{ read, write float64 }
	runAt := func(cm float64) row {
		var out row
		for _, p := range []fio.Pattern{fio.SeqRead, fio.SeqWrite} {
			rig, err := NewRig(Scenario2, units.Distance(cm)*units.Centimeter, 11)
			if err != nil {
				t.Fatal(err)
			}
			rig.ApplyTone(tone)
			res, err := fio.NewRunner(rig.Disk, rig.Clock).Run(fio.PaperJob(p, 2*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			if p == fio.SeqRead {
				out.read = res.ThroughputMBps()
			} else {
				out.write = res.ThroughputMBps()
			}
		}
		return out
	}
	at1 := runAt(1)
	if at1.read != 0 || at1.write != 0 {
		t.Fatalf("1 cm: got %.1f/%.1f MB/s, want 0/0", at1.read, at1.write)
	}
	at5 := runAt(5)
	if at5.read != 0 || at5.write != 0 {
		t.Fatalf("5 cm: got %.1f/%.1f MB/s, want 0/0", at5.read, at5.write)
	}
	at10 := runAt(10)
	if at10.write > 1.0 {
		t.Fatalf("10 cm: write %.1f MB/s, want ≈0.3 (crawling)", at10.write)
	}
	if at10.read < 10 {
		t.Fatalf("10 cm: read %.1f MB/s, want double digits", at10.read)
	}
	at15 := runAt(15)
	if at15.write < 0.3 || at15.write > 6 {
		t.Fatalf("15 cm: write %.1f MB/s, want heavily degraded but alive (paper: 2.9)", at15.write)
	}
	if at15.read < 16 {
		t.Fatalf("15 cm: read %.1f MB/s, want near normal (paper: 17.6)", at15.read)
	}
	at20 := runAt(20)
	if at20.write < 19 {
		t.Fatalf("20 cm: write %.1f MB/s, want near normal (paper: 21.1)", at20.write)
	}
	at25 := runAt(25)
	if at25.write < 21 || at25.read < 17 {
		t.Fatalf("25 cm: %.1f/%.1f MB/s, want normal", at25.read, at25.write)
	}
}

func TestMoveSpeaker(t *testing.T) {
	rig, err := NewRig(Scenario2, 1*units.Centimeter, 1)
	if err != nil {
		t.Fatal(err)
	}
	tone := sig.NewTone(650 * units.Hz)
	rig.ApplyTone(tone)
	near := rig.Drive.Vibration().Amplitude
	rig.MoveSpeaker(25*units.Centimeter, tone)
	far := rig.Drive.Vibration().Amplitude
	if far >= near {
		t.Fatalf("moving away should reduce amplitude: %v -> %v", near, far)
	}
	rig.Silence()
	if rig.Drive.Vibration().Amplitude != 0 {
		t.Fatal("Silence did not clear vibration")
	}
}

func TestWithDistanceDoesNotMutate(t *testing.T) {
	tb, _ := NewTestbed(Scenario2, 1*units.Centimeter)
	tb2 := tb.WithDistance(25 * units.Centimeter)
	if tb.Chain.Path.Distance != 1*units.Centimeter {
		t.Fatal("WithDistance mutated the original")
	}
	if tb2.Chain.Path.Distance != 25*units.Centimeter {
		t.Fatal("WithDistance did not apply")
	}
}

func TestReadBandNestedInWriteBand(t *testing.T) {
	// Property from the mechanism: any frequency where reads fault is a
	// frequency where writes fault (write tolerance is tighter).
	tb, _ := NewTestbed(Scenario3, 1*units.Centimeter)
	m := tb.DriveModel
	for f := units.Frequency(100); f <= 16900; f += 100 {
		v := tb.VibrationFor(sig.NewTone(f))
		readFaults := v.Amplitude >= m.ReadFaultFrac
		writeFaults := v.Amplitude >= m.WriteFaultFrac
		if readFaults && !writeFaults {
			t.Fatalf("at %v reads fault but writes do not", f)
		}
	}
}

func TestOffTrackRatioUsesWriteThreshold(t *testing.T) {
	tb, _ := NewTestbed(Scenario2, 1*units.Centimeter)
	v := tb.VibrationFor(sig.NewTone(650))
	want := v.Amplitude / tb.DriveModel.WriteFaultFrac
	if got := tb.OffTrackRatio(650); math.Abs(got-want) > 1e-12 {
		t.Fatalf("OffTrackRatio = %v, want %v", got, want)
	}
}

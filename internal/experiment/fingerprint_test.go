package experiment

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// The acceptance pin for the experiment layer: zero false positives at
// default thresholds across the whole benign corpus, detection of the
// §4.1 tone at ≥ 6 dB SNR over every background, and the measured
// confidences driving the store's defense gate the right way.
func TestFingerprintRunAcceptance(t *testing.T) {
	res, err := FingerprintRun(FingerprintSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FalsePositives != 0 || res.FPRate != 0 {
		t.Fatalf("benign corpus FP rate %.4f (%d/%d), want 0",
			res.FPRate, res.FalsePositives, res.BenignWindows)
	}
	if len(res.Benign) != 15 { // 5 scenarios × 3 seeds
		t.Fatalf("benign cells = %d, want 15", len(res.Benign))
	}
	if res.BenignMaxConfidence >= 0.5 {
		t.Fatalf("benign confidence reached %.2f", res.BenignMaxConfidence)
	}
	for _, r := range res.Benign {
		if r.Result.FusedAlarms != 0 || r.Result.TelemetryAlarms != 0 {
			t.Fatalf("%v seed %d: benign run alarmed", r.Background, r.AmbientSeed)
		}
	}
	for _, r := range res.Hostile {
		if r.SNRdB >= 6 {
			if !r.Result.Detected {
				t.Fatalf("%v at %g dB: tone not detected", r.Background, r.SNRdB)
			}
			if math.Abs(r.Result.DetectedFreq.Hertz()-650) > 20 {
				t.Fatalf("%v at %g dB: detected %v, want ≈ 650 Hz",
					r.Background, r.SNRdB, r.Result.DetectedFreq)
			}
			if r.Result.Confidence < 0.5 {
				t.Fatalf("%v at %g dB: confidence %.2f", r.Background, r.SNRdB, r.Result.Confidence)
			}
			if r.Result.DetectLatency > 2*time.Second {
				t.Fatalf("%v at %g dB: detection took %v", r.Background, r.SNRdB, r.Result.DetectLatency)
			}
		} else if r.Result.Detected {
			t.Fatalf("%v at %g dB: buried tone flagged hostile", r.Background, r.SNRdB)
		}
		if r.Result.FalsePositives != 0 {
			t.Fatalf("%v at %g dB: %d lead-in false positives", r.Background, r.SNRdB, r.Result.FalsePositives)
		}
	}
	if res.GateBenignArmed {
		t.Fatal("benign-confidence fix armed the defense through the 0.5 gate")
	}
	if !res.GateHostileArmed {
		t.Fatal("hostile-confidence fix failed to arm the defense")
	}
}

// The experiment must be byte-identical at any worker count —
// TestGoldenOutputs in cmd/deepnote runs the CLI flavor of this.
func TestFingerprintRunDeterministicAcrossWorkers(t *testing.T) {
	spec := FingerprintSpec{
		SNRs:        []float64{6},
		BenignSeeds: 1,
		Duration:    6 * time.Second,
		Seed:        5,
	}
	spec.Workers = 1
	a, err := FingerprintRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Workers = 8
	b, err := FingerprintRun(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("workers 1 vs 8 diverged:\n 1: %+v\n 8: %+v", a, b)
	}
}

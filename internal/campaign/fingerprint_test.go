package campaign

import (
	"math"
	"reflect"
	"testing"
	"time"

	"deepnote/internal/sig"
)

// ptr returns a pointer to v, for the optional spec fields.
func ptr[T any](v T) *T { return &v }

// The campaign-level false-positive pin: a monitored victim listening to
// each benign ambient scenario for the full run, with no attack keyed,
// must end with zero alarms on every detection layer.
func TestFingerprintCampaignBenignRunRaisesNoAlarms(t *testing.T) {
	for _, kind := range sig.AmbientKinds() {
		res, err := FingerprintSpec{
			Ambient:  sig.NewAmbient(kind, 3),
			ToneAmp:  ptr(0.0),
			Duration: 12 * time.Second,
			Seed:     3,
		}.Run()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.Detected || res.FalsePositives != 0 || res.FPRate != 0 {
			t.Fatalf("%v: benign run produced detections: %+v", kind, res)
		}
		if res.SpectralAlarms != 0 || res.TelemetryAlarms != 0 || res.FusedAlarms != 0 {
			t.Fatalf("%v: benign run raised alarms: spectral=%d telemetry=%d fused=%d",
				kind, res.SpectralAlarms, res.TelemetryAlarms, res.FusedAlarms)
		}
		if res.BenignWindows != res.Windows || res.Windows < 80 {
			t.Fatalf("%v: windows=%d benign=%d", kind, res.Windows, res.BenignWindows)
		}
		if !res.SMARTHealthy {
			t.Fatalf("%v: benign run degraded SMART", kind)
		}
	}
}

// The §4.3 attack chain end-to-end: full-scale 650 Hz at 1 cm keys on a
// quarter into the run; the fingerprinter must identify the tone within a
// bounded latency, the latency monitor must corroborate, and the benign
// lead-in must stay clean.
func TestFingerprintCampaignDetectsAttack(t *testing.T) {
	res, err := FingerprintSpec{Duration: 20 * time.Second, Seed: 2}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatalf("attack not fingerprinted: %+v", res)
	}
	if math.Abs(res.DetectedFreq.Hertz()-650) > 20 {
		t.Fatalf("fingerprinted %v, want ≈ 650 Hz", res.DetectedFreq)
	}
	if res.Confidence < 0.5 {
		t.Fatalf("detection confidence %.2f < 0.5", res.Confidence)
	}
	if res.DetectLatency > 3*time.Second {
		t.Fatalf("detection took %v after key-on", res.DetectLatency)
	}
	if res.FalsePositives != 0 {
		t.Fatalf("%d false positives in the benign lead-in", res.FalsePositives)
	}
	if res.TelemetryAlarms == 0 || res.FusedAlarms == 0 {
		t.Fatalf("corroborating layers silent: telemetry=%d fused=%d",
			res.TelemetryAlarms, res.FusedAlarms)
	}
	if res.MaxSuspicion < 0.5 {
		t.Fatalf("latency suspicion peaked at %.2f under a servo-lock attack", res.MaxSuspicion)
	}
}

// Identical specs must produce byte-identical results — the campaign is
// the unit the experiment layer parallelizes over.
func TestFingerprintCampaignDeterministic(t *testing.T) {
	spec := FingerprintSpec{
		Ambient:  sig.NewAmbient(sig.AmbientShipTraffic, 4),
		Duration: 10 * time.Second,
		Seed:     4,
	}
	a, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reruns diverged:\n a: %+v\n b: %+v", a, b)
	}
}

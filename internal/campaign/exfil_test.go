package campaign

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"deepnote/internal/exfil"
	"deepnote/internal/metrics"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// TestExfilDetectFSKCaughtEverywhere pins the defense leg's headline: the
// FSK waveform keeps a strong 780 Hz carrier on the tray sensor, and the
// spectral fingerprinter catches it before the first frame completes —
// zero payload bytes leak — under every ambient scenario, with a clean
// benign lead-in.
func TestExfilDetectFSKCaughtEverywhere(t *testing.T) {
	for _, kind := range sig.AmbientKinds() {
		s := ExfilDetectSpec{
			Ambient: sig.NewAmbient(kind, 3),
			Frames:  4,
			Seed:    5,
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.FalsePositives != 0 {
			t.Errorf("%v: %d false positives during the benign lead-in", kind, res.FalsePositives)
		}
		if !res.Detected {
			t.Errorf("%v: FSK transmission not detected", kind)
			continue
		}
		if res.DetectLatency >= res.FrameAirtime {
			t.Errorf("%v: detection latency %v not within one frame airtime %v", kind, res.DetectLatency, res.FrameAirtime)
		}
		if res.BytesLeaked != 0 {
			t.Errorf("%v: %d bytes leaked before detection, want 0", kind, res.BytesLeaked)
		}
	}
}

// TestExfilDetectOOKStealthTradeoff pins the channel's stealth asymmetry:
// OOK is half silence on the weak third-harmonic carrier, so the
// fingerprinter needs far longer — whole frames leak first — and under
// rain's heavy broadband the transmission escapes entirely.
func TestExfilDetectOOKStealthTradeoff(t *testing.T) {
	ook := exfil.ModemConfig{Scheme: exfil.SchemeOOK}

	creak, err := ExfilDetectSpec{Modem: ook, Ambient: sig.NewAmbient(sig.AmbientCreak, 3), Frames: 8, Seed: 5}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !creak.Detected {
		t.Fatal("OOK over thermal-creak not detected at all")
	}
	if creak.DetectLatency < creak.FrameAirtime {
		t.Errorf("OOK latency %v under creak beat one frame airtime %v — no stealth advantage measured",
			creak.DetectLatency, creak.FrameAirtime)
	}
	if creak.BytesLeaked == 0 {
		t.Error("OOK leaked no bytes before detection; the latency×goodput accounting is broken")
	}
	if creak.BytesLeaked >= creak.BytesSent {
		t.Errorf("OOK leaked the whole %d-byte transmission despite detection at %v", creak.BytesSent, creak.DetectLatency)
	}

	rain, err := ExfilDetectSpec{Modem: ook, Ambient: sig.NewAmbient(sig.AmbientRain, 3), Frames: 4, Seed: 5}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rain.Detected {
		t.Errorf("OOK under rain detected at %v — the stealth finding no longer holds", rain.DetectLatency)
	}
	if rain.BytesLeaked != rain.BytesSent {
		t.Errorf("undetected run leaked %d of %d bytes", rain.BytesLeaked, rain.BytesSent)
	}
}

// TestExfilDetectDeterministic replays a spec and demands identical
// results — the property TestGoldenOutputs in cmd/deepnote leans on when
// it pins the exfil row at -workers 1 and 8.
func TestExfilDetectDeterministic(t *testing.T) {
	s := ExfilDetectSpec{Ambient: sig.NewAmbient(sig.AmbientShrimp, 9), Frames: 2, Seed: 11}
	r1, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("replay diverged:\n%+v\nvs\n%+v", r1, r2)
	}
}

// TestExfilDetectRejectsMismatchedRates pins the guard between the two
// clock domains: the fingerprinter must sample the stream at the modem's
// rate or the window timeline is meaningless.
func TestExfilDetectRejectsMismatchedRates(t *testing.T) {
	s := ExfilDetectSpec{
		Modem:  exfil.ModemConfig{SampleRate: exfil.Ptr(2048.0), Tone0: exfil.Ptr(500 * units.Hz), Tone1: exfil.Ptr(600 * units.Hz)},
		Frames: 1,
	}
	if _, err := s.Run(); !errors.Is(err, exfil.ErrConfig) {
		t.Fatalf("mismatched sample rates accepted: %v", err)
	}
}

// TestExfilDetectMetrics checks the campaign publishes its counters.
func TestExfilDetectMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	s := ExfilDetectSpec{Ambient: sig.NewAmbient(sig.AmbientPump, 3), Frames: 2, Seed: 5, Lead: 2 * time.Second, Metrics: reg}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["exfil_detect.runs"]; got != 1 {
		t.Errorf("exfil_detect.runs = %d, want 1", got)
	}
	if got := snap.Counters["exfil_detect.bytes_sent"]; got != int64(res.BytesSent) {
		t.Errorf("exfil_detect.bytes_sent = %d, want %d", got, res.BytesSent)
	}
	if got := snap.Counters["exfil_detect.bytes_leaked"]; got != int64(res.BytesLeaked) {
		t.Errorf("exfil_detect.bytes_leaked = %d, want %d", got, res.BytesLeaked)
	}
}

package detect

import (
	"math"
	"testing"
	"time"

	"deepnote/internal/hdd"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

func newFP(t *testing.T) *Fingerprinter {
	t.Helper()
	fp, err := NewFingerprinter(FingerprintConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// feedScenario streams windows of (vibration + ambient + sensor noise)
// telemetry through the fingerprinter.
func feedScenario(fp *Fingerprinter, vib hdd.Vibration, amb sig.Ambient, windows int, seed int64) {
	synth := NewSynth(fp.SampleRate(), fp.WindowSamples(), DefaultSensorSigma, seed)
	for w := 0; w < windows; w++ {
		fp.Feed(synth.Window(vib, amb))
	}
}

// The headline pin: zero false positives at default thresholds across the
// full benign ambient corpus — every scenario, many windows, several
// seeds.
func TestFingerprintZeroFalsePositivesOnBenignCorpus(t *testing.T) {
	for _, kind := range sig.AmbientKinds() {
		for seed := int64(1); seed <= 3; seed++ {
			fp := newFP(t)
			feedScenario(fp, hdd.Quiet(), sig.NewAmbient(kind, seed), 96, seed)
			if fp.HostileWindows() != 0 || fp.Alarms != 0 {
				t.Fatalf("%v seed %d: %d hostile windows, %d alarms on benign noise",
					kind, seed, fp.HostileWindows(), fp.Alarms)
			}
			if fp.MaxConfidence() >= 0.5 {
				t.Fatalf("%v seed %d: benign confidence reached %.2f",
					kind, seed, fp.MaxConfidence())
			}
			if fp.Windows() != 96 {
				t.Fatalf("windows = %d", fp.Windows())
			}
		}
	}
}

// The §4.1 hostile tone must be fingerprinted at 6 dB over the broadband
// floor — far below the level that causes any I/O damage.
func TestFingerprintDetectsHostileToneAt6dB(t *testing.T) {
	for _, kind := range append([]sig.AmbientKind{sig.AmbientNone}, sig.AmbientKinds()...) {
		amb := sig.NewAmbient(kind, 2)
		sigma := math.Hypot(DefaultSensorSigma, amb.NominalSigma())
		vib := hdd.Vibration{Freq: 650 * units.Hz, Amplitude: sigma * math.Pow(10, 6.0/20)}
		fp := newFP(t)
		fp.SetOrigin(time.Unix(1000, 0))
		feedScenario(fp, vib, amb, 48, 2)
		det, ok, _ := fp.FirstDetection(time.Time{})
		if !ok {
			t.Fatalf("%v: 650 Hz tone at 6 dB SNR not detected (max conf %.2f)", kind, fp.MaxConfidence())
		}
		if math.Abs(det.PeakFreq.Hertz()-650) > 20 {
			t.Fatalf("%v: detected %v, want ≈ 650 Hz", kind, det.PeakFreq)
		}
		if det.Confidence < 0.5 {
			t.Fatalf("%v: hostile confidence %.2f < 0.5", kind, det.Confidence)
		}
		if det.Hostile != (det.Confidence >= 0.5) {
			t.Fatal("hostile iff confidence ≥ 0.5 invariant broken")
		}
		// Detection latency: persistence (3 windows) plus slack.
		if det.At.Sub(time.Unix(1000, 0)) > 10*fp.WindowDuration() {
			t.Fatalf("%v: detection took %v", kind, det.At.Sub(time.Unix(1000, 0)))
		}
	}
}

// Below the floor (0 dB) the same tone must NOT be called hostile — that
// is the false-positive / sensitivity trade the thresholds encode.
func TestFingerprintIgnoresBuriedTone(t *testing.T) {
	vib := hdd.Vibration{Freq: 650 * units.Hz, Amplitude: DefaultSensorSigma}
	fp := newFP(t)
	feedScenario(fp, vib, sig.Ambient{}, 48, 3)
	if fp.HostileWindows() != 0 {
		t.Fatalf("tone at 0 dB SNR classified hostile in %d windows", fp.HostileWindows())
	}
}

// The pump's 360/480/600 Hz harmonics are louder than MinAmp — only the
// comb check keeps them benign. Verify it is load-bearing.
func TestFingerprintRejectsPumpCombByStructure(t *testing.T) {
	fp := newFP(t)
	feedScenario(fp, hdd.Quiet(), sig.NewAmbient(sig.AmbientPump, 5), 48, 5)
	if fp.HostileWindows() != 0 {
		t.Fatal("pump comb classified hostile")
	}
	combSeen := false
	// Re-run a single window to inspect the verdict.
	fp2 := newFP(t)
	synth := NewSynth(fp2.SampleRate(), fp2.WindowSamples(), DefaultSensorSigma, 5)
	for w := 0; w < 16; w++ {
		fp2.Feed(synth.Window(hdd.Quiet(), sig.NewAmbient(sig.AmbientPump, 5)))
		if fp2.last.Benign == ReasonHarmonicComb {
			combSeen = true
		}
	}
	if !combSeen {
		t.Fatal("pump windows never exercised the harmonic-comb rejector")
	}
	// A hostile tone co-existing with the pump must still be caught:
	// 650 Hz is not on the 120 Hz comb.
	amb := sig.NewAmbient(sig.AmbientPump, 5)
	sigma := math.Hypot(DefaultSensorSigma, amb.NominalSigma())
	fp3 := newFP(t)
	feedScenario(fp3, hdd.Vibration{Freq: 650 * units.Hz, Amplitude: 3 * sigma}, amb, 48, 5)
	if _, ok, _ := fp3.FirstDetection(time.Time{}); !ok {
		t.Fatal("pump background masked a true 650 Hz attack")
	}
}

// TestFirstDetectionCutoff: a hostile verdict exactly at the cutoff is the
// detection, not a false positive; one nanosecond later it is counted
// before the cutoff and the next verdict is the detection.
func TestFirstDetectionCutoff(t *testing.T) {
	fp := newFP(t)
	fp.SetOrigin(time.Unix(1000, 0))
	vib := hdd.Vibration{Freq: 650 * units.Hz, Amplitude: 4 * DefaultSensorSigma}
	feedScenario(fp, vib, sig.Ambient{}, 16, 2)
	first, ok, before := fp.FirstDetection(time.Time{})
	if !ok || before != 0 || fp.HostileWindows() < 2 {
		t.Fatalf("tone not detected in two windows: ok=%v before=%d hostile=%d", ok, before, fp.HostileWindows())
	}
	if got, ok, before := fp.FirstDetection(first.At); !ok || got != first || before != 0 {
		t.Fatalf("cutoff at the first verdict: got window %d ok=%v before=%d, want window %d and 0 before",
			got.Window, ok, before, first.Window)
	}
	got, ok, before := fp.FirstDetection(first.At.Add(time.Nanosecond))
	if !ok || before != 1 || !got.At.After(first.At) {
		t.Fatalf("cutoff just past the first verdict: window %d ok=%v before=%d, want a later window and 1 before",
			got.Window, ok, before)
	}
	if _, ok, before := fp.FirstDetection(time.Unix(1e6, 0)); ok || before != fp.HostileWindows() {
		t.Fatalf("cutoff after the run: ok=%v before=%d, want none and %d before", ok, before, fp.HostileWindows())
	}
}

func TestFingerprintConfigValidation(t *testing.T) {
	good, err := NewFingerprinter(FingerprintConfig{
		SampleRate:    Ptr(2048.0),
		WindowSamples: Ptr(256),
		BinStep:       Ptr(8 * units.Hz),
		BandHigh:      Ptr(900 * units.Hz),
	})
	if err != nil {
		t.Fatal(err)
	}
	if good.SampleRate() != 2048 || good.WindowSamples() != 256 {
		t.Fatal("explicit config not honored")
	}
	bad := []FingerprintConfig{
		{SampleRate: Ptr(0.0)},
		{WindowSamples: Ptr(8)},
		{BandLow: Ptr(units.Frequency(0))},
		{BandLow: Ptr(900 * units.Hz), BandHigh: Ptr(800 * units.Hz)},
		{GuardLow: Ptr(units.Frequency(0))},
		{GuardLow: Ptr(400 * units.Hz)}, // ≥ BandLow
		{BinStep: Ptr(units.Frequency(0))},
		{MinAmp: Ptr(0.0)},
		{MinTonalFrac: Ptr(1.5)},
		{MinSNRdB: Ptr(-3.0)},
		{Persistence: Ptr(0)},
		{BandHigh: Ptr(3000 * units.Hz)}, // ≥ Nyquist at 4096 Hz
		{SampleRate: Ptr(math.NaN())},
		{SampleRate: Ptr(math.Inf(1))},
		{BandHigh: Ptr(units.Frequency(math.NaN()))},
		{GuardLow: Ptr(units.Frequency(math.NaN()))},
		{BinStep: Ptr(units.Frequency(math.NaN()))},
		{BinStep: Ptr(units.Frequency(math.Inf(1)))},
		{MinAmp: Ptr(math.NaN())},
		{MinAmp: Ptr(math.Inf(1))},
		{MinTonalFrac: Ptr(math.NaN())},
		{MinSNRdB: Ptr(math.NaN())},
		{MinSNRdB: Ptr(math.Inf(1))},
	}
	for i, cfg := range bad {
		if _, err := NewFingerprinter(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// Benign steady state must not allocate (the fingerprinter rides inside
// simulation loops); the Synth buffer is reused.
func TestFingerprintBenignSteadyStateAllocFree(t *testing.T) {
	fp := newFP(t)
	buf := make([]float64, fp.WindowSamples())
	for i := range buf {
		buf[i] = 0.001 * math.Sin(0.05*float64(i))
	}
	fp.Feed(buf) // warm up
	allocs := testing.AllocsPerRun(50, func() { fp.Feed(buf) })
	if allocs != 0 {
		t.Fatalf("benign classify allocates %.1f/window, want 0", allocs)
	}
}

func TestFusedVerdictCombinesFactors(t *testing.T) {
	// Spectral-only: a stealthy tone the latency detector cannot see.
	fp := newFP(t)
	det, err := NewDetector(Config{})
	if err != nil {
		t.Fatal(err)
	}
	fused := &Fused{Telemetry: det, Spectral: fp}
	now := time.Unix(2000, 0)
	feedScenario(fp, hdd.Vibration{Freq: 650 * units.Hz, Amplitude: 0.05}, sig.Ambient{}, 8, 9)
	v := fused.Verdict(now)
	if !v.Hostile || v.SpectralConfidence < 0.5 {
		t.Fatalf("spectral-only verdict: %+v", v)
	}
	if fused.Alarms != 1 {
		t.Fatalf("fused alarms = %d", fused.Alarms)
	}
	// Telemetry-only: saturate the latency detector with no spectral
	// energy — a non-acoustic failure still alarms.
	det2, _ := NewDetector(Config{BaselineOps: Ptr(1), WindowOps: Ptr(4)})
	det2.Observe(now, time.Millisecond, false)
	for i := 0; i < 4; i++ {
		det2.Observe(now, time.Millisecond, true)
	}
	fused2 := &Fused{Telemetry: det2, Spectral: newFP(t)}
	if v2 := fused2.Verdict(now); !v2.Hostile {
		t.Fatalf("saturated telemetry verdict: %+v", v2)
	}
	// SMART corroboration adds confidence.
	fused3 := &Fused{Telemetry: det, Spectral: newFP(t)}
	base := fused3.Verdict(now).Confidence
	fused3.SMARTSuspect = true
	if boosted := fused3.Verdict(now).Confidence; boosted <= base {
		t.Fatalf("SMART trip must raise confidence: %.2f -> %.2f", base, boosted)
	}
}

func BenchmarkFingerprinterFeed(b *testing.B) {
	fp, err := NewFingerprinter(FingerprintConfig{})
	if err != nil {
		b.Fatal(err)
	}
	synth := NewSynth(fp.SampleRate(), fp.WindowSamples(), DefaultSensorSigma, 1)
	pump := sig.NewAmbient(sig.AmbientPump, 1)
	windows := make([][]float64, 16)
	for i := range windows {
		windows[i] = append([]float64(nil), synth.Window(hdd.Quiet(), pump)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp.Feed(windows[i%len(windows)])
	}
}

// The fingerprint campaign closes the detection loop end-to-end: a victim
// rig runs a monitored write workload in a chosen ambient soundscape while
// the drive-tray telemetry stream feeds the spectral fingerprinter, and —
// optionally — a hostile tone keys on partway through. It is the
// integration harness behind `deepnote fingerprint`: benign scenarios must
// produce zero alarms, and the §4.1 tone must be fingerprinted within a
// bounded number of analysis windows of key-on.
package campaign

import (
	"time"

	"deepnote/internal/core"
	"deepnote/internal/detect"
	"deepnote/internal/hdd"
	"deepnote/internal/metrics"
	"deepnote/internal/parallel"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// FingerprintSpec configures one monitored run.
type FingerprintSpec struct {
	Scenario core.Scenario
	// Freq is the hostile tone frequency (default 650 Hz, the §4.1 worst
	// case).
	Freq units.Frequency
	// Distance is the speaker standoff when the full acoustic chain
	// drives the attack (ToneAmp nil).
	Distance units.Distance
	// Ambient is the benign soundscape the tray sensor hears throughout.
	Ambient sig.Ambient
	// ToneAmp selects how the attack excites the drive. Nil = drive the
	// full §4.3 chain (full-scale tone through water, container wall, and
	// mount at Distance). Ptr(0) = no attack at all — a pure benign run —
	// and is honored. Ptr(a > 0) = set the drive's off-track amplitude
	// directly, which is how the SNR-controlled experiment cells place a
	// tone exactly N dB over the telemetry floor.
	ToneAmp *float64
	// Duration is the total run length. Default 30 s.
	Duration time.Duration
	// AttackStart is when the tone keys on. Zero = Duration/4, leaving a
	// benign lead-in that doubles as the false-positive control window.
	AttackStart time.Duration
	// Detector tunes the latency/error monitor; Fingerprint tunes the
	// spectral classifier.
	Detector    detect.Config
	Fingerprint detect.FingerprintConfig
	Seed        int64
	// Metrics receives campaign counters when non-nil (published after
	// the run completes).
	Metrics *metrics.Registry
}

func (s FingerprintSpec) withDefaults() FingerprintSpec {
	if s.Scenario == 0 {
		s.Scenario = core.Scenario2
	}
	if s.Freq == 0 {
		s.Freq = 650 * units.Hz
	}
	if s.Distance == 0 {
		s.Distance = 1 * units.Centimeter
	}
	if s.Duration == 0 {
		s.Duration = 30 * time.Second
	}
	if s.AttackStart == 0 {
		s.AttackStart = s.Duration / 4
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// attacking reports whether the spec actually keys a tone.
func (s FingerprintSpec) attacking() bool {
	return s.ToneAmp == nil || *s.ToneAmp > 0
}

// FingerprintResult summarizes one monitored run.
type FingerprintResult struct {
	Spec FingerprintSpec
	// Windows is how many analysis windows completed; HostileWindows how
	// many the spectral classifier called hostile.
	Windows, HostileWindows int
	// SpectralAlarms / TelemetryAlarms / FusedAlarms count rising edges
	// of each layer's verdict.
	SpectralAlarms, TelemetryAlarms, FusedAlarms int
	// Detected is true when a hostile spectral verdict fired at or after
	// AttackStart; DetectLatency is the lag from key-on to that verdict,
	// DetectedFreq its peak bin, Confidence its per-detection confidence.
	Detected      bool
	DetectLatency time.Duration
	DetectedFreq  units.Frequency
	Confidence    float64
	// MaxConfidence / MaxSuspicion are the worst spectral confidence and
	// telemetry suspicion seen anywhere in the run.
	MaxConfidence, MaxSuspicion float64
	// FalsePositives counts hostile spectral verdicts during benign time
	// (before AttackStart, or anywhere in a no-attack run); BenignWindows
	// is the denominator, and FPRate their ratio.
	FalsePositives, BenignWindows int
	FPRate                        float64
	// SMARTHealthy is the drive's SMART state at run end.
	SMARTHealthy bool
}

// Run executes the campaign: the victim writes continuously through the
// latency monitor, the tray telemetry stream is synthesized and classified
// window by window in lockstep with the workload clock, and the fused
// verdict is rendered once per window. Everything runs on the rig's
// virtual clock from seeded sources, so results are byte-identical at any
// worker count.
func (s FingerprintSpec) Run() (FingerprintResult, error) {
	s = s.withDefaults()
	rig, err := core.NewRig(s.Scenario, s.Distance, s.Seed)
	if err != nil {
		return FingerprintResult{}, err
	}
	mon, err := detect.NewMonitor(rig.Disk, rig.Clock, s.Detector)
	if err != nil {
		return FingerprintResult{}, err
	}
	fp, err := detect.NewFingerprinter(s.Fingerprint)
	if err != nil {
		return FingerprintResult{}, err
	}
	origin := rig.Clock.Now()
	fp.SetOrigin(origin)
	// The telemetry sensor gets its own seed lane so workload and sensor
	// noise stay independent.
	synth := detect.NewSynth(fp.SampleRate(), fp.WindowSamples(),
		detect.DefaultSensorSigma, parallel.SeedFor(s.Seed, 1))
	fused := &detect.Fused{Telemetry: mon.Detector(), Spectral: fp}

	spec := s
	spec.Metrics = nil // plumbing, not a campaign parameter
	res := FingerprintResult{Spec: spec}

	winDur := fp.WindowDuration()
	attackAt := origin.Add(s.AttackStart)
	attacking := false
	emitted := 0
	// emit renders and classifies one telemetry window ending at the
	// current window boundary. The drive's vibration state at emission
	// time stands in for the whole window — a fair approximation at
	// 125 ms windows against multi-second attack phases.
	emit := func() {
		fp.Feed(synth.Window(rig.Drive.Vibration(), s.Ambient))
		fused.SMARTSuspect = !rig.Drive.SMARTHealthy()
		fused.Verdict(rig.Clock.Now())
		if sus := mon.Suspicion(); sus > res.MaxSuspicion {
			res.MaxSuspicion = sus
		}
		emitted++
	}

	buf := make([]byte, 4096)
	var off int64
	for rig.Clock.Now().Sub(origin) < s.Duration {
		if !attacking && !rig.Clock.Now().Before(attackAt) && s.attacking() {
			if s.ToneAmp == nil {
				rig.ApplyTone(sig.NewTone(s.Freq))
			} else {
				rig.Drive.SetVibration(hdd.Vibration{Freq: s.Freq, Amplitude: *s.ToneAmp})
			}
			attacking = true
		}
		mon.WriteAt(buf, off%(1<<24))
		off += 4096
		// Emit every window boundary the op crossed (a slow failing op
		// can span several).
		for !origin.Add(time.Duration(emitted+1) * winDur).After(rig.Clock.Now()) {
			emit()
		}
	}
	rig.Silence()

	res.Windows = fp.Windows()
	res.HostileWindows = fp.HostileWindows()
	res.SpectralAlarms = fp.Alarms
	res.TelemetryAlarms = mon.Detector().Alarms
	res.FusedAlarms = fused.Alarms
	res.MaxConfidence = fp.MaxConfidence()
	res.SMARTHealthy = rig.Drive.SMARTHealthy()

	benignUntil := attackAt
	if !s.attacking() {
		benignUntil = origin.Add(s.Duration)
		res.BenignWindows = res.Windows
	} else {
		res.BenignWindows = int(s.AttackStart / winDur)
	}
	det, ok, before := fp.FirstDetection(benignUntil)
	res.FalsePositives = before
	if ok {
		res.Detected = true
		res.DetectLatency = det.At.Sub(attackAt)
		res.DetectedFreq = det.PeakFreq
		res.Confidence = det.Confidence
	}
	if res.BenignWindows > 0 {
		res.FPRate = float64(res.FalsePositives) / float64(res.BenignWindows)
	}
	s.publishFingerprintMetrics(rig, res)
	return res, nil
}

// publishFingerprintMetrics folds the finished run into the registry —
// pure functions of the deterministic result, so snapshots merge
// identically at any worker count.
func (s FingerprintSpec) publishFingerprintMetrics(rig *core.Rig, res FingerprintResult) {
	reg := s.Metrics
	reg.Add("fingerprint.runs", 1)
	reg.Add("fingerprint.windows", int64(res.Windows))
	reg.Add("fingerprint.hostile_windows", int64(res.HostileWindows))
	reg.Add("fingerprint.false_positives", int64(res.FalsePositives))
	reg.Add("fingerprint.fused_alarms", int64(res.FusedAlarms))
	if res.Detected {
		reg.Add("fingerprint.detections", 1)
	}
	reg.MaxGauge("fingerprint.max_confidence", res.MaxConfidence)
	reg.MaxGauge("fingerprint.max_suspicion", res.MaxSuspicion)
	rig.Drive.PublishMetrics(reg)
	rig.Disk.PublishMetrics(reg)
}

// The exfiltration-defense campaign runs the covert channel against the
// defender's own telemetry instrumentation: the insider's modulated seek
// waveform (internal/exfil) lands on the drive-tray sensor alongside the
// ambient soundscape and sensor noise, and the spectral fingerprinter +
// fused verdict watch the stream. The quantity that matters is not "was
// it detected" but "how many bytes left the facility first" — detection
// latency times channel goodput. It is the harness behind the defense
// table of `deepnote exfil`.
package campaign

import (
	"fmt"
	"math/rand"
	"time"

	"deepnote/internal/detect"
	"deepnote/internal/exfil"
	"deepnote/internal/metrics"
	"deepnote/internal/parallel"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// ExfilDetectSpec configures one covert-transmission run under telemetry
// surveillance. Zero values take campaign defaults, matching the other
// specs in this package; the embedded exfil configs keep their own
// pointer-field convention.
type ExfilDetectSpec struct {
	// Modem and Tx configure the covert channel's modulation and the
	// transmitting drive.
	Modem exfil.ModemConfig
	Tx    exfil.TxConfig
	// Ambient is the benign soundscape on the tray sensor throughout.
	Ambient sig.Ambient
	// Frames is how many back-to-back frames the insider sends. 0 = 16.
	Frames int
	// Lead is the benign lead-in before the first symbol — the
	// false-positive control window. 0 = 4 s.
	Lead time.Duration
	// Fingerprint tunes the spectral classifier watching the stream.
	Fingerprint detect.FingerprintConfig
	Seed        int64
	// Metrics receives campaign counters when non-nil.
	Metrics *metrics.Registry
}

func (s ExfilDetectSpec) withDefaults() ExfilDetectSpec {
	if s.Frames == 0 {
		s.Frames = 16
	}
	if s.Lead == 0 {
		s.Lead = 4 * time.Second
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// ExfilDetectResult summarizes one surveilled transmission.
type ExfilDetectResult struct {
	Spec ExfilDetectSpec
	// Windows / HostileWindows count analysis windows overall and those
	// the classifier called hostile.
	Windows, HostileWindows int
	// FusedAlarms counts rising edges of the fused verdict.
	FusedAlarms int
	// Detected is true when a hostile verdict fired at or after the
	// first symbol; DetectLatency is the lag from transmission start,
	// DetectedFreq the verdict's peak bin, Confidence its confidence.
	Detected      bool
	DetectLatency time.Duration
	DetectedFreq  units.Frequency
	Confidence    float64
	// FalsePositives counts hostile verdicts during the benign lead-in.
	FalsePositives int
	// FramesSent / BytesSent describe the whole transmission;
	// FrameAirtime is one frame's duration on the channel.
	FramesSent   int
	BytesSent    int
	FrameAirtime time.Duration
	// GoodputBps is the channel's payload goodput in bits/s while
	// transmitting (payload bits over frame airtime).
	GoodputBps float64
	// BytesLeaked is how many payload bytes completed their frame before
	// the detection verdict — the whole transmission when undetected.
	// The defender's real figure of merit.
	BytesLeaked int
}

// Run transmits Frames covert frames through the tray-telemetry path
// under the fingerprinter's watch. Deterministic per seed: the payload,
// sensor noise, and ambient draws all derive from seed lanes, so results
// are byte-identical at any worker count.
func (s ExfilDetectSpec) Run() (ExfilDetectResult, error) {
	s = s.withDefaults()
	mod, err := exfil.NewModulator(s.Modem, s.Tx)
	if err != nil {
		return ExfilDetectResult{}, err
	}
	fp, err := detect.NewFingerprinter(s.Fingerprint)
	if err != nil {
		return ExfilDetectResult{}, err
	}
	if fp.SampleRate() != mod.Modem().SampleRate() {
		return ExfilDetectResult{}, fmt.Errorf("%w: fingerprint sample rate %g Hz does not match the modem's %g Hz",
			exfil.ErrConfig, fp.SampleRate(), mod.Modem().SampleRate())
	}
	md := mod.Modem()
	airtime := time.Duration(md.FrameAirtime() * float64(time.Second))
	origin := time.Unix(0, 0).UTC()
	fp.SetOrigin(origin)
	fused := &detect.Fused{Spectral: fp}

	spec := s
	spec.Metrics = nil // plumbing, not a campaign parameter
	res := ExfilDetectResult{Spec: spec, FrameAirtime: airtime}

	// The exfiltrated blob: deterministic pseudorandom payload bytes, the
	// statistically hardest case for the classifier (no bit bias to park
	// energy on one tone).
	payloadRng := rand.New(rand.NewSource(parallel.SeedFor(s.Seed, 2)))
	var bits []byte
	for f := 0; f < s.Frames; f++ {
		payload := make([]byte, md.MaxPayload())
		payloadRng.Read(payload)
		fb, err := md.EncodeFrame(payload)
		if err != nil {
			return ExfilDetectResult{}, err
		}
		bits = append(bits, fb...)
		res.BytesSent += len(payload)
	}
	res.FramesSent = s.Frames
	res.GoodputBps = 8 * float64(md.MaxPayload()) / md.FrameAirtime()

	// Render the full sensor stream: benign lead-in, then the modulated
	// seek waveform, with the ambient scenario and sensor noise on top.
	leadSamples := int(s.Lead.Seconds() * md.SampleRate())
	wave := make([]float64, leadSamples)
	wave = mod.AppendTelemetry(bits, wave)
	win := fp.WindowSamples()
	if tail := len(wave) % win; tail != 0 {
		wave = append(wave, make([]float64, win-tail)...)
	}
	noiseSeed := parallel.SeedFor(s.Seed, 1)
	for w := 0; w*win < len(wave); w++ {
		frame := wave[w*win : (w+1)*win]
		s.Ambient.RenderInto(w, md.SampleRate(), frame)
		rng := rand.New(rand.NewSource(parallel.SeedFor(noiseSeed, w)))
		for i := range frame {
			frame[i] += detect.DefaultSensorSigma * rng.NormFloat64()
		}
		fp.Feed(frame)
		fused.Verdict(origin.Add(time.Duration(float64((w+1)*win) / md.SampleRate() * float64(time.Second))))
	}

	res.Windows = fp.Windows()
	res.HostileWindows = fp.HostileWindows()
	res.FusedAlarms = fused.Alarms
	res.Confidence = fp.MaxConfidence()

	txStart := origin.Add(time.Duration(float64(leadSamples) / md.SampleRate() * float64(time.Second)))
	det, ok, before := fp.FirstDetection(txStart)
	res.FalsePositives = before
	if ok {
		res.Detected = true
		res.DetectLatency = det.At.Sub(txStart)
		res.DetectedFreq = det.PeakFreq
		res.Confidence = det.Confidence
	}
	res.BytesLeaked = res.BytesSent
	if res.Detected {
		frames := int(res.DetectLatency / airtime)
		if frames > s.Frames {
			frames = s.Frames
		}
		res.BytesLeaked = frames * md.MaxPayload()
	}
	s.publishExfilMetrics(res)
	return res, nil
}

// publishExfilMetrics folds the finished run into the registry — pure
// functions of the deterministic result, so snapshots merge identically
// at any worker count.
func (s ExfilDetectSpec) publishExfilMetrics(res ExfilDetectResult) {
	reg := s.Metrics
	reg.Add("exfil_detect.runs", 1)
	reg.Add("exfil_detect.windows", int64(res.Windows))
	reg.Add("exfil_detect.hostile_windows", int64(res.HostileWindows))
	reg.Add("exfil_detect.false_positives", int64(res.FalsePositives))
	reg.Add("exfil_detect.bytes_sent", int64(res.BytesSent))
	reg.Add("exfil_detect.bytes_leaked", int64(res.BytesLeaked))
	if res.Detected {
		reg.Add("exfil_detect.detections", 1)
	}
	reg.MaxGauge("exfil_detect.max_confidence", res.Confidence)
}

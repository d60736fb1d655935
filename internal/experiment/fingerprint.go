package experiment

import (
	"context"
	"fmt"
	"math"
	"time"

	"deepnote/internal/campaign"
	"deepnote/internal/cluster"
	"deepnote/internal/detect"
	"deepnote/internal/metrics"
	"deepnote/internal/parallel"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// FingerprintSpec is the spectral-fingerprinting experiment: the benign
// ambient corpus (ship traffic, rain, snapping shrimp, facility pumps,
// thermal creak) runs through the full monitored-victim chain to measure
// the classifier's false-positive rate, and the §4.1 hostile tone is
// injected over every background at controlled SNRs to measure detection
// latency and confidence. A defense-gate demo rides along: the measured
// confidences are fed through cluster.SetDefense's MinConfidence gate to
// show benign verdicts cannot escalate the store's defense while hostile
// ones arm it.
type FingerprintSpec struct {
	// Freq is the hostile tone (default 650 Hz, the §4.1 worst case);
	// must be finite and > 0.
	Freq units.Frequency
	// SNRs are the hostile-cell tone levels in dB over the telemetry
	// noise floor (default 0, 6, 12 — below, at, and above the detection
	// threshold).
	SNRs []float64
	// BenignSeeds is how many seeded variants of each benign scenario run
	// (default 3).
	BenignSeeds int
	// Duration is each cell's run length (default 12 s ≈ 96 windows);
	// must be > 0.
	Duration time.Duration
	Seed     int64
	// Workers bounds the cell fan-out (≤ 0 = one per CPU); results are
	// byte-identical at any worker count.
	Workers int
	// Metrics receives campaign and experiment counters when non-nil.
	Metrics *metrics.Registry
}

func (s FingerprintSpec) withDefaults() FingerprintSpec {
	if s.Freq == 0 {
		s.Freq = 650 * units.Hz
	}
	if s.SNRs == nil {
		s.SNRs = []float64{0, 6, 12}
	}
	if s.BenignSeeds <= 0 {
		s.BenignSeeds = 3
	}
	if s.Duration == 0 {
		s.Duration = 12 * time.Second
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// FingerprintRow is one experiment cell's outcome.
type FingerprintRow struct {
	// Background is the ambient scenario the tray sensor heard.
	Background sig.AmbientKind
	// AmbientSeed is the scenario's seed variant.
	AmbientSeed int64
	// Attack is true for hostile cells; SNRdB is the injected tone level
	// over the telemetry floor (meaningful only when Attack).
	Attack bool
	SNRdB  float64
	// Result is the full monitored-run outcome.
	Result campaign.FingerprintResult
}

// FingerprintResult is the experiment outcome.
type FingerprintResult struct {
	// Benign are the no-attack corpus cells; Hostile the tone-injection
	// cells.
	Benign, Hostile []FingerprintRow
	// BenignWindows and FalsePositives aggregate the corpus; FPRate is
	// their ratio — the headline number pinned to zero at default
	// thresholds.
	BenignWindows, FalsePositives int
	FPRate                        float64
	// BenignMaxConfidence is the worst spectral confidence any benign
	// window reached; HostileMinConfidence the weakest detection
	// confidence among detected hostile cells (1 if none detected).
	BenignMaxConfidence, HostileMinConfidence float64
	// GateBenignArmed / GateHostileArmed report the defense-gate demo:
	// a SourceFix carrying the benign-side confidence must NOT arm the
	// store's defense at MinConfidence 0.5, while the hostile-side one
	// must.
	GateBenignArmed, GateHostileArmed bool
}

// fingerprintCell is one unit of fan-out work.
type fingerprintCell struct {
	kind   sig.AmbientKind
	seed   int64 // ambient seed variant
	attack bool
	snr    float64
}

func (s FingerprintSpec) cells() []fingerprintCell {
	var cells []fingerprintCell
	for _, kind := range sig.AmbientKinds() {
		for v := int64(1); v <= int64(s.BenignSeeds); v++ {
			cells = append(cells, fingerprintCell{kind: kind, seed: v})
		}
	}
	for _, kind := range append([]sig.AmbientKind{sig.AmbientNone}, sig.AmbientKinds()...) {
		for _, snr := range s.SNRs {
			cells = append(cells, fingerprintCell{kind: kind, seed: 1, attack: true, snr: snr})
		}
	}
	return cells
}

// FingerprintRun executes the experiment. Every cell derives its seed with
// parallel.SeedFor, so the result is byte-identical at any Workers value.
func FingerprintRun(spec FingerprintSpec) (FingerprintResult, error) {
	spec = spec.withDefaults()
	if f := spec.Freq.Hertz(); !(f > 0) || math.IsInf(f, 1) {
		return FingerprintResult{}, fmt.Errorf("experiment: fingerprint tone %v must be finite and > 0", spec.Freq)
	}
	if spec.Duration <= 0 {
		return FingerprintResult{}, fmt.Errorf("experiment: fingerprint cell duration %v must be > 0", spec.Duration)
	}
	cells := spec.cells()
	rows, err := parallel.RunObserved(context.Background(), cells, spec.Workers, spec.Metrics,
		func(_ context.Context, i int, c fingerprintCell) (FingerprintRow, error) {
			amb := sig.NewAmbient(c.kind, c.seed)
			cs := campaign.FingerprintSpec{
				Freq:     spec.Freq,
				Ambient:  amb,
				Duration: spec.Duration,
				Seed:     parallel.SeedFor(spec.Seed, i),
				Metrics:  spec.Metrics,
			}
			if c.attack {
				floor := math.Hypot(detect.DefaultSensorSigma, amb.NominalSigma())
				cs.ToneAmp = cluster.Ptr(floor * math.Pow(10, c.snr/20))
			} else {
				cs.ToneAmp = cluster.Ptr(0.0)
			}
			res, err := cs.Run()
			if err != nil {
				return FingerprintRow{}, err
			}
			return FingerprintRow{
				Background:  c.kind,
				AmbientSeed: c.seed,
				Attack:      c.attack,
				SNRdB:       c.snr,
				Result:      res,
			}, nil
		})
	if err != nil {
		return FingerprintResult{}, err
	}

	out := FingerprintResult{HostileMinConfidence: 1}
	for _, r := range rows {
		if !r.Attack {
			out.Benign = append(out.Benign, r)
			out.BenignWindows += r.Result.BenignWindows
			out.FalsePositives += r.Result.FalsePositives
			if r.Result.MaxConfidence > out.BenignMaxConfidence {
				out.BenignMaxConfidence = r.Result.MaxConfidence
			}
			continue
		}
		out.Hostile = append(out.Hostile, r)
		if r.Result.Detected && r.Result.Confidence < out.HostileMinConfidence {
			out.HostileMinConfidence = r.Result.Confidence
		}
	}
	if out.BenignWindows > 0 {
		out.FPRate = float64(out.FalsePositives) / float64(out.BenignWindows)
	}

	// Defense-gate demo: feed the measured confidences through the
	// store's MinConfidence gate.
	var gateErr error
	out.GateBenignArmed, gateErr = defenseGateArms(spec.Freq, out.BenignMaxConfidence)
	if gateErr != nil {
		return out, gateErr
	}
	out.GateHostileArmed, gateErr = defenseGateArms(spec.Freq, out.HostileMinConfidence)
	if gateErr != nil {
		return out, gateErr
	}

	spec.Metrics.Add("experiment.fingerprint_runs", 1)
	spec.Metrics.Add("experiment.fingerprint_cells", int64(len(cells)))
	spec.Metrics.MaxGauge("experiment.fingerprint_fp_rate", out.FPRate)
	spec.Metrics.MaxGauge("experiment.fingerprint_benign_max_confidence", out.BenignMaxConfidence)
	return out, nil
}

// defenseGateArms compiles a minimal defense plan from one SourceFix
// carrying the given verdict confidence, gated at MinConfidence 0.5, and
// reports whether the store armed.
func defenseGateArms(freq units.Frequency, confidence float64) (bool, error) {
	tone := sig.NewTone(freq)
	lay := cluster.LineLayout(3, 2*units.Meter).WithSpeakersAt(tone, 0)
	c, err := cluster.New(cluster.Config{
		Layout:     lay,
		DataShards: 2, ParityShards: 1,
		Objects: 6, ObjectSize: 4 << 10,
		Seed: cluster.Ptr(int64(1)),
	})
	if err != nil {
		return false, err
	}
	err = c.SetDefense(cluster.DefenseSpec{
		Fixes: []cluster.SourceFix{{
			At:         100 * time.Millisecond,
			Pos:        lay.Speakers[0].Pos,
			Err:        20 * units.Centimeter,
			Tone:       tone,
			Confidence: confidence,
		}},
		MinConfidence: cluster.Ptr(0.5),
	})
	if err != nil {
		return false, err
	}
	return c.Defended(), nil
}

// FingerprintBenignReport renders the false-positive corpus sweep.
func FingerprintBenignReport(res FingerprintResult) *report.Table {
	tb := report.NewTable(
		"Benign ambient corpus: spectral classifier false positives at default thresholds",
		"Scenario", "Seed", "Windows", "False pos", "FP rate", "Max conf", "Alarms")
	for _, r := range res.Benign {
		tb.AddRow(
			r.Background.String(),
			fmt.Sprintf("%d", r.AmbientSeed),
			fmt.Sprintf("%d", r.Result.Windows),
			fmt.Sprintf("%d", r.Result.FalsePositives),
			fmt.Sprintf("%.3f", r.Result.FPRate),
			fmt.Sprintf("%.2f", r.Result.MaxConfidence),
			fmt.Sprintf("%d", r.Result.FusedAlarms))
	}
	return tb
}

// FingerprintDetectionReport renders the hostile-tone injection sweep.
func FingerprintDetectionReport(res FingerprintResult) *report.Table {
	tb := report.NewTable(
		"Hostile tone over each background at controlled SNR",
		"Background", "SNR dB", "Detected", "Latency s", "Freq Hz", "Confidence", "Lead-in FPs")
	for _, r := range res.Hostile {
		det, lat, freq, conf := "no", "-", "-", "-"
		if r.Result.Detected {
			det = "yes"
			lat = fmt.Sprintf("%.2f", r.Result.DetectLatency.Seconds())
			freq = fmt.Sprintf("%.0f", r.Result.DetectedFreq.Hertz())
			conf = fmt.Sprintf("%.2f", r.Result.Confidence)
		}
		tb.AddRow(
			r.Background.String(),
			fmt.Sprintf("%.0f", r.SNRdB),
			det, lat, freq, conf,
			fmt.Sprintf("%d", r.Result.FalsePositives))
	}
	return tb
}

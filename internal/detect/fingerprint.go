// The spectral half of the detector: a streaming fingerprinter that runs
// a Goertzel bank over synthesized drive-tray vibration telemetry and
// decides, window by window, whether the energy looks like a hostile
// narrowband tone in the servo-vulnerable band (§4.1) or like one of the
// benign ambient sources an underwater facility actually hears — ship
// traffic, rain, snapping shrimp, its own pumps, hull creak.
//
// A window is hostile only when four independent factors agree: the peak
// is loud in absolute terms, narrowband relative to the in-band energy,
// well above the broadband floor, and persistent across consecutive
// windows. A fifth check rejects harmonic combs rooted below the band
// (pump and propeller lines), which defeat naive amplitude thresholds.
package detect

import (
	"fmt"
	"math"
	"time"

	"deepnote/internal/dsp"
	"deepnote/internal/units"
)

// FingerprintConfig tunes the spectral fingerprinter. Pointer fields
// follow the zero-vs-unset convention: nil = default, explicit values are
// validated and honored.
type FingerprintConfig struct {
	// SampleRate is the telemetry sample rate in Hz. Nil = 4096; must
	// be finite and > 0.
	SampleRate *float64
	// WindowSamples is the analysis window length. Nil = 512 (125 ms at
	// the default rate); must be ≥ 16.
	WindowSamples *int
	// BandLow/BandHigh bound the vulnerable band a hostile tone lives
	// in. Nil = 300 / 1400 Hz (the §4.1 servo-resonance window).
	BandLow, BandHigh *units.Frequency
	// GuardLow is the bottom of the sub-band guard region scanned for
	// harmonic-comb fundamentals. Nil = 30 Hz; must be > 0 and < BandLow.
	GuardLow *units.Frequency
	// BinStep is the bank's frequency grid pitch. Nil = 10 Hz; must
	// be finite and > 0.
	BinStep *units.Frequency
	// MinAmp is the minimum peak amplitude (track-pitch fractions) a
	// hostile candidate needs. Nil = 0.02; must be finite and > 0.
	MinAmp *float64
	// MinTonalFrac is the minimum fraction of in-band bank energy the
	// peak bin must hold. Nil = 0.35; must be in (0, 1].
	MinTonalFrac *float64
	// MinSNRdB is the minimum peak-over-broadband ratio. Nil = 5 dB;
	// must be finite and > 0.
	MinSNRdB *float64
	// Persistence is how many consecutive windows a candidate must hold
	// its bin before the verdict turns hostile. Nil = 3; must be ≥ 1.
	Persistence *int
}

type fingerprintConfig struct {
	sampleRate    float64
	windowSamples int
	bandLow       units.Frequency
	bandHigh      units.Frequency
	guardLow      units.Frequency
	binStep       units.Frequency
	minAmp        float64
	minTonalFrac  float64
	minSNRdB      float64
	persistence   int
}

func (c FingerprintConfig) resolve() (fingerprintConfig, error) {
	r := fingerprintConfig{
		sampleRate:    4096,
		windowSamples: 512,
		bandLow:       300 * units.Hz,
		bandHigh:      1400 * units.Hz,
		guardLow:      30 * units.Hz,
		binStep:       10 * units.Hz,
		minAmp:        0.02,
		minTonalFrac:  0.35,
		minSNRdB:      5,
		persistence:   3,
	}
	if c.SampleRate != nil {
		if !finitePositive(*c.SampleRate) {
			return r, fmt.Errorf("detect: SampleRate %g must be finite and > 0", *c.SampleRate)
		}
		r.sampleRate = *c.SampleRate
	}
	if c.WindowSamples != nil {
		if *c.WindowSamples < 16 {
			return r, fmt.Errorf("detect: WindowSamples %d must be ≥ 16", *c.WindowSamples)
		}
		r.windowSamples = *c.WindowSamples
	}
	if c.BandLow != nil {
		r.bandLow = *c.BandLow
	}
	if c.BandHigh != nil {
		r.bandHigh = *c.BandHigh
	}
	if !finitePositive(r.bandLow.Hertz()) || !finitePositive(r.bandHigh.Hertz()) || r.bandHigh <= r.bandLow {
		return r, fmt.Errorf("detect: band [%v, %v] must be finite and satisfy 0 < low < high", r.bandLow, r.bandHigh)
	}
	if c.GuardLow != nil {
		r.guardLow = *c.GuardLow
	}
	if !(r.guardLow > 0 && r.guardLow < r.bandLow) {
		return r, fmt.Errorf("detect: GuardLow %v must be in (0, BandLow %v)", r.guardLow, r.bandLow)
	}
	if c.BinStep != nil {
		if !finitePositive(c.BinStep.Hertz()) {
			return r, fmt.Errorf("detect: BinStep %v must be finite and > 0", *c.BinStep)
		}
		r.binStep = *c.BinStep
	}
	if c.MinAmp != nil {
		if !finitePositive(*c.MinAmp) {
			return r, fmt.Errorf("detect: MinAmp %g must be finite and > 0", *c.MinAmp)
		}
		r.minAmp = *c.MinAmp
	}
	if c.MinTonalFrac != nil {
		if !(*c.MinTonalFrac > 0 && *c.MinTonalFrac <= 1) {
			return r, fmt.Errorf("detect: MinTonalFrac %g must be in (0, 1]", *c.MinTonalFrac)
		}
		r.minTonalFrac = *c.MinTonalFrac
	}
	if c.MinSNRdB != nil {
		if !finitePositive(*c.MinSNRdB) {
			return r, fmt.Errorf("detect: MinSNRdB %g must be finite and > 0", *c.MinSNRdB)
		}
		r.minSNRdB = *c.MinSNRdB
	}
	if c.Persistence != nil {
		if *c.Persistence < 1 {
			return r, fmt.Errorf("detect: Persistence %d must be ≥ 1", *c.Persistence)
		}
		r.persistence = *c.Persistence
	}
	if r.bandHigh.Hertz() >= r.sampleRate/2 {
		return r, fmt.Errorf("detect: BandHigh %v at or above Nyquist (%g Hz)", r.bandHigh, r.sampleRate/2)
	}
	return r, nil
}

// BenignReason explains why a window was not classified hostile.
type BenignReason int

const (
	// ReasonNone: the window IS hostile.
	ReasonNone BenignReason = iota
	// ReasonQuiet: no in-band peak above the amplitude floor.
	ReasonQuiet
	// ReasonBroadband: energy spread across the band (rain, shrimp
	// crackle) rather than concentrated in one bin.
	ReasonBroadband
	// ReasonLowSNR: a peak exists but sits too close to the broadband
	// floor.
	ReasonLowSNR
	// ReasonHarmonicComb: the peak is a harmonic of a sub-band
	// fundamental with comb partners — facility pump or propeller blade
	// lines, not an attack tone.
	ReasonHarmonicComb
	// ReasonTransient: a candidate that has not yet persisted long
	// enough to confirm.
	ReasonTransient
)

// SpectralVerdict is one analysis window's classification.
type SpectralVerdict struct {
	// At is the window's end time (origin + windows·windowDuration).
	At time.Time
	// Window is the 0-based window index.
	Window int
	// PeakFreq/PeakAmp locate the strongest in-band bin (amplitude in
	// track-pitch fractions).
	PeakFreq units.Frequency
	PeakAmp  float64
	// TonalFrac is the peak bin's share of the in-band bank energy.
	TonalFrac float64
	// SNRdB is the peak amplitude over the broadband floor estimate.
	SNRdB float64
	// Run counts consecutive windows the candidate held its bin.
	Run int
	// Hostile is the verdict; Confidence ∈ [0, 1] is ≥ 0.5 iff Hostile.
	Hostile    bool
	Confidence float64
	// Benign explains a non-hostile verdict.
	Benign BenignReason
}

// Fingerprinter streams telemetry samples through a Goertzel bank and
// classifies each completed window. Steady state (benign traffic) is
// allocation-free; hostile verdicts append to a bounded detection log.
type Fingerprinter struct {
	cfg        fingerprintConfig
	bank       *dsp.Bank
	guardBins  int    // bins below bandLow
	masked     []bool // per-window scratch: bins attributed to a comb
	origin     time.Time
	run        int
	runBin     int
	armed      bool
	last       SpectralVerdict
	maxConf    float64
	hostileWin int
	// Alarms counts rising edges of the hostile verdict.
	Alarms     int
	detections []SpectralVerdict
}

// maxStoredDetections bounds the per-run detection log.
const maxStoredDetections = 512

// NewFingerprinter builds the spectral classifier, rejecting out-of-range
// configuration.
func NewFingerprinter(cfg FingerprintConfig) (*Fingerprinter, error) {
	r, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	var freqs []units.Frequency
	guard := 0
	for f := r.guardLow; f < r.bandLow; f += r.binStep {
		freqs = append(freqs, f)
		guard++
	}
	for f := r.bandLow; f <= r.bandHigh; f += r.binStep {
		freqs = append(freqs, f)
	}
	bank, err := dsp.NewBank(r.sampleRate, r.windowSamples, freqs)
	if err != nil {
		return nil, err
	}
	return &Fingerprinter{
		cfg:       r,
		bank:      bank,
		guardBins: guard,
		masked:    make([]bool, len(freqs)),
		runBin:    -1,
	}, nil
}

// SetOrigin anchors verdict timestamps: window w ends at
// origin + (w+1)·windowSamples/sampleRate.
func (f *Fingerprinter) SetOrigin(t time.Time) { f.origin = t }

// WindowDuration returns one analysis window's span of virtual time.
func (f *Fingerprinter) WindowDuration() time.Duration {
	return time.Duration(float64(f.cfg.windowSamples) / f.cfg.sampleRate * float64(time.Second))
}

// WindowSamples returns the analysis window length in samples.
func (f *Fingerprinter) WindowSamples() int { return f.cfg.windowSamples }

// SampleRate returns the telemetry sample rate in Hz.
func (f *Fingerprinter) SampleRate() float64 { return f.cfg.sampleRate }

// Feed pushes telemetry samples, classifying every window that completes.
func (f *Fingerprinter) Feed(samples []float64) {
	for len(samples) > 0 {
		n, frame, ok := f.bank.PushBlock(samples)
		samples = samples[n:]
		if ok {
			f.classify(frame)
		}
	}
}

func clamp01(x float64) float64 { return math.Min(1, math.Max(0, x)) }

// score maps a threshold ratio to [0, 1]: exactly at threshold → 0.5,
// twice the threshold (or more) → 1.
func score(ratio float64) float64 { return clamp01(ratio / 2) }

func (f *Fingerprinter) classify(frame dsp.Frame) {
	n := f.cfg.windowSamples
	v := SpectralVerdict{
		Window: frame.Index,
		At:     f.origin.Add(time.Duration(int64(frame.Index+1) * int64(f.WindowDuration()))),
	}

	// Mask machinery combs first: a strong sub-band line whose harmonic
	// family is audible (pump, propeller blades) claims its multiples, so
	// comb energy is excluded from both the peak search and the tonal-
	// fraction denominator. A comb can out-shout a co-existing attack
	// tone; explaining it away up front lets the residual be judged on
	// its own merits.
	powers := frame.Power
	freqs := f.bank.Freqs()
	for i := range f.masked {
		f.masked[i] = false
	}
	sawComb := false
	for g := 0; g < f.guardBins; g++ {
		fundAmp := dsp.Amp(powers[g], n)
		if fundAmp < f.cfg.minAmp {
			continue
		}
		f0 := freqs[g].Hertz()
		audible := 0
		for m := 2.0; m*f0 <= freqs[len(freqs)-1].Hertz(); m++ {
			if dsp.Amp(powers[f.nearestBin(m*f0)], n) >= 0.25*fundAmp {
				audible++
			}
		}
		if audible >= 2 {
			sawComb = true
			f.maskComb(f0)
		}
	}

	// Locate the in-band peak over the unmasked residual.
	peak := -1
	var peakP, inBandSum float64
	for i := f.guardBins; i < len(powers); i++ {
		if f.masked[i] {
			continue
		}
		inBandSum += powers[i]
		if peak < 0 || powers[i] > peakP {
			peak, peakP = i, powers[i]
		}
	}
	if peak >= 0 {
		v.PeakFreq = freqs[peak]
		v.PeakAmp = dsp.Amp(peakP, n)
		if inBandSum > 0 {
			v.TonalFrac = peakP / inBandSum
		}
	}

	// Broadband floor: total power minus the tonal bins (bins well above
	// the mean bin power), floored so a dominating tone cannot drive the
	// estimate to zero.
	var meanP float64
	for _, p := range powers {
		meanP += p
	}
	meanP /= float64(len(powers))
	var tonalMS float64
	for _, p := range powers {
		if p > 4*meanP {
			a := dsp.Amp(p, n)
			tonalMS += a * a / 2
		}
	}
	noiseMS := math.Max(frame.TotalMS-tonalMS, 0.05*frame.TotalMS)
	if noiseMS < 1e-18 {
		noiseMS = 1e-18
	}
	sigma := math.Sqrt(noiseMS)
	if v.PeakAmp > 0 {
		v.SNRdB = 20 * math.Log10(v.PeakAmp/sigma)
	} else {
		v.SNRdB = math.Inf(-1)
	}

	// The four factor ratios (≥ 1 = factor satisfied).
	ampRatio := v.PeakAmp / f.cfg.minAmp
	tonalRatio := v.TonalFrac / f.cfg.minTonalFrac
	snrRatio := v.SNRdB / f.cfg.minSNRdB

	candidate := ampRatio >= 1 && tonalRatio >= 1 && snrRatio >= 1
	switch {
	case ampRatio < 1:
		if sawComb {
			// Everything above the floor was machinery-comb harmonics.
			v.Benign = ReasonHarmonicComb
		} else {
			v.Benign = ReasonQuiet
		}
	case tonalRatio < 1:
		v.Benign = ReasonBroadband
	case snrRatio < 1:
		v.Benign = ReasonLowSNR
	default:
		// Second line of defense: a comb too faint for fundamental-
		// anchored masking can still be recognized from the peak side.
		if _, ok := f.combMatch(frame, peak); ok {
			v.Benign = ReasonHarmonicComb
			candidate = false
		}
	}

	// Persistence: the candidate must hold (nearly) the same bin across
	// consecutive windows — drive tones are stable, transients are not.
	if candidate {
		if f.runBin >= 0 && abs(peak-f.runBin) <= 2 {
			f.run++
		} else {
			f.run = 1
		}
		f.runBin = peak
	} else {
		f.run = 0
		f.runBin = -1
	}
	v.Run = f.run

	// Confidence is the weakest factor's score; for comb windows the
	// ratios already describe the (quiet) residual after masking, so a
	// recognized comb cannot push confidence toward the hostile line no
	// matter how loud its harmonics are.
	runRatio := float64(f.run) / float64(f.cfg.persistence)
	conf := math.Min(math.Min(score(ampRatio), score(tonalRatio)),
		math.Min(score(snrRatio), score(runRatio)))
	v.Confidence = clamp01(conf)
	v.Hostile = candidate && f.run >= f.cfg.persistence
	if v.Hostile {
		v.Benign = ReasonNone
		f.hostileWin++
		if len(f.detections) < maxStoredDetections {
			f.detections = append(f.detections, v)
		}
	} else if candidate {
		v.Benign = ReasonTransient
	}
	if v.Confidence > f.maxConf {
		f.maxConf = v.Confidence
	}
	if v.Hostile && !f.armed {
		f.Alarms++
	}
	f.armed = v.Hostile
	f.last = v
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// combMatch reports whether the in-band peak is a harmonic of a sub-band
// fundamental with at least one more comb partner — the signature of
// pump/propeller machinery rather than a single attack tone — returning
// the fundamental's bin. (An attacker could in principle masquerade by
// emitting a matching sub-band fundamental; that trade costs acoustic
// power outside the damaging band and is out of scope for this
// classifier.)
func (f *Fingerprinter) combMatch(frame dsp.Frame, peak int) (int, bool) {
	if peak < 0 {
		return -1, false
	}
	freqs := f.bank.Freqs()
	powers := frame.Power
	n := f.cfg.windowSamples
	peakAmp := dsp.Amp(powers[peak], n)

	// Strongest guard-region line at least half the peak's amplitude.
	fund := -1
	var fundAmp float64
	for i := 0; i < f.guardBins; i++ {
		a := dsp.Amp(powers[i], n)
		if a >= 0.5*peakAmp && a > fundAmp {
			fund, fundAmp = i, a
		}
	}
	if fund < 0 {
		return -1, false
	}
	f0 := freqs[fund].Hertz()
	pf := freqs[peak].Hertz()
	k := math.Round(pf / f0)
	if k < 2 {
		return -1, false
	}
	tol := math.Max(f.cfg.binStep.Hertz(), 0.02*pf)
	if math.Abs(pf-k*f0) > tol {
		return -1, false
	}
	// At least one more harmonic of the fundamental must be audible.
	for m := 2; m <= 10; m++ {
		hf := f0 * float64(m)
		if hf > freqs[len(freqs)-1].Hertz() {
			break
		}
		if math.Abs(hf-pf) <= tol {
			continue // the peak itself
		}
		if a := dsp.Amp(powers[f.nearestBin(hf)], n); a >= 0.25*fundAmp {
			return fund, true
		}
	}
	return -1, false
}

// maskComb marks every in-band bin lying on a harmonic of f0 (Hz) so the
// residual spectrum can be re-scanned for a non-comb candidate. The
// tolerance matches combMatch's, evaluated per harmonic.
func (f *Fingerprinter) maskComb(f0 float64) {
	freqs := f.bank.Freqs()
	top := freqs[len(freqs)-1].Hertz()
	for m := 2.0; m*f0 <= top+f.cfg.binStep.Hertz(); m++ {
		hf := m * f0
		tol := math.Max(f.cfg.binStep.Hertz(), 0.02*hf)
		for i := f.guardBins; i < len(freqs); i++ {
			if math.Abs(freqs[i].Hertz()-hf) <= tol {
				f.masked[i] = true
			}
		}
	}
}

// nearestBin returns the bank bin index closest to freq (Hz).
func (f *Fingerprinter) nearestBin(hz float64) int {
	freqs := f.bank.Freqs()
	if hz <= freqs[0].Hertz() {
		return 0
	}
	if g := freqs[f.guardBins-1].Hertz(); hz < (g+f.cfg.bandLow.Hertz())/2 {
		i := int(math.Round((hz - f.cfg.guardLow.Hertz()) / f.cfg.binStep.Hertz()))
		if i >= f.guardBins {
			i = f.guardBins - 1
		}
		return i
	}
	i := f.guardBins + int(math.Round((hz-f.cfg.bandLow.Hertz())/f.cfg.binStep.Hertz()))
	if i < f.guardBins {
		i = f.guardBins
	}
	if i >= len(freqs) {
		i = len(freqs) - 1
	}
	return i
}

// Confidence returns the most recent window's confidence.
func (f *Fingerprinter) Confidence() float64 { return f.last.Confidence }

// MaxConfidence returns the highest confidence any window reached.
func (f *Fingerprinter) MaxConfidence() float64 { return f.maxConf }

// Windows returns how many analysis windows have completed.
func (f *Fingerprinter) Windows() int { return f.bank.Frames() }

// HostileWindows returns how many windows were classified hostile.
func (f *Fingerprinter) HostileWindows() int { return f.hostileWin }

// FirstDetection returns the first hostile verdict at or after cutoff
// (ok false when there is none) and how many hostile verdicts came
// before cutoff: the false positives of a run whose hostile signal
// starts there. It reads the bounded detection log.
func (f *Fingerprinter) FirstDetection(cutoff time.Time) (first SpectralVerdict, ok bool, before int) {
	for i, v := range f.detections {
		if !v.At.Before(cutoff) {
			return v, true, i
		}
	}
	return SpectralVerdict{}, false, len(f.detections)
}

// Fused combines the two detection factors — latency/error telemetry and
// the spectral fingerprint — into one verdict. Spectral confidence alone
// can cross the hostile line (a stealthy tone below the latency-damage
// threshold); a saturated latency detector alone can too (a non-acoustic
// failure still deserves an alarm); in between, each factor corroborates
// the other. A SMART trip (servo retries / command timeouts over
// threshold) adds a fixed bonus, since benign ambient noise never moves
// SMART counters.
type Fused struct {
	Telemetry *Detector
	Spectral  *Fingerprinter
	// SMARTSuspect is set by the caller when the drive's SMART
	// attributes crossed their thresholds.
	SMARTSuspect bool

	// Alarms counts rising edges of the fused hostile verdict.
	Alarms int
	armed  bool
}

// FusedVerdict is the combined classification at one instant.
type FusedVerdict struct {
	At                 time.Time
	Suspicion          float64
	SpectralConfidence float64
	SMARTSuspect       bool
	Confidence         float64
	Hostile            bool
}

// Verdict renders the fused verdict at now and tracks alarm edges.
func (f *Fused) Verdict(now time.Time) FusedVerdict {
	v := FusedVerdict{At: now, SMARTSuspect: f.SMARTSuspect}
	if f.Telemetry != nil {
		v.Suspicion = f.Telemetry.Suspicion(now)
	}
	if f.Spectral != nil {
		v.SpectralConfidence = f.Spectral.Confidence()
	}
	v.Confidence = math.Max(v.SpectralConfidence, 0.5*v.Suspicion+0.5*v.SpectralConfidence)
	if f.SMARTSuspect {
		v.Confidence = clamp01(v.Confidence + 0.2)
	}
	v.Hostile = v.Confidence >= 0.5
	if v.Hostile && !f.armed {
		f.Alarms++
	}
	f.armed = v.Hostile
	return v
}

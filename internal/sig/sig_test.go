package sig

import (
	"math"
	"testing"
	"testing/quick"

	"deepnote/internal/units"
)

// samples renders n samples of the tone's waveform at sampleRateHz, in
// full-scale units, starting at phase zero.
func samples(tone Tone, sampleRateHz float64, n int) []float64 {
	out := make([]float64, n)
	w := tone.Freq.AngularVelocity()
	for i := range out {
		out[i] = tone.Amplitude * math.Sin(w*float64(i)/sampleRateHz)
	}
	return out
}

func TestToneSample(t *testing.T) {
	// Four samples per period land on 0, the crest, 0 and the trough.
	got := samples(NewTone(650*units.Hz), 4*650, 4)
	for i, want := range []float64{0, 1, 0, -1} {
		if math.Abs(got[i]-want) > 1e-9 {
			t.Fatalf("sample %d = %v, want %v", i, got[i], want)
		}
	}
}

func TestToneNormalize(t *testing.T) {
	tone := Tone{Freq: -5, Amplitude: 3}.Normalize()
	if tone.Amplitude != 1 || tone.Freq != 0 {
		t.Fatalf("Normalize = %+v, want amp 1 freq 0", tone)
	}
	tone = Tone{Freq: 100, Amplitude: -2}.Normalize()
	if tone.Amplitude != 0 {
		t.Fatalf("Normalize negative amp = %v, want 0", tone.Amplitude)
	}
}

// The drive level DriveDB reports is the level of the rendered waveform:
// a sine's peak is √2 times its RMS.
func TestToneRMSMatchesSamples(t *testing.T) {
	tone := Tone{Freq: 650, Amplitude: 0.8}
	// Sample 10 whole periods densely.
	n := 10000
	rate := 650 * float64(n) / 10
	got := 20 * math.Log10(math.Sqrt2*rmsOf(samples(tone, rate, n)))
	if want := float64(tone.DriveDB()); math.Abs(got-want) > 1e-3 {
		t.Fatalf("sampled level = %v dBFS, DriveDB = %v", got, want)
	}
}

func TestToneDriveDB(t *testing.T) {
	if got := float64(NewTone(650).DriveDB()); math.Abs(got) > 1e-12 {
		t.Fatalf("full scale drive = %v dBFS, want 0", got)
	}
	half := Tone{Freq: 650, Amplitude: 0.5}
	if got := float64(half.DriveDB()); math.Abs(got+6.0206) > 0.01 {
		t.Fatalf("half drive = %v dBFS, want ≈ -6.02", got)
	}
}

func TestPaperSweepValid(t *testing.T) {
	p := PaperSweep()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	fs := p.CoarseFrequencies()
	if fs[0] != 100*units.Hz {
		t.Fatalf("sweep starts at %v, want 100Hz", fs[0])
	}
	if fs[len(fs)-1] != 16900*units.Hz {
		t.Fatalf("sweep ends at %v, want 16.9kHz", fs[len(fs)-1])
	}
}

func TestSweepValidation(t *testing.T) {
	bad := []SweepPlan{
		{Start: 0, End: 100, CoarseStep: 10, FineStep: 5, DwellSec: 1},
		{Start: 200, End: 100, CoarseStep: 10, FineStep: 5, DwellSec: 1},
		{Start: 100, End: 200, CoarseStep: 0, FineStep: 5, DwellSec: 1},
		{Start: 100, End: 200, CoarseStep: 10, FineStep: 50, DwellSec: 1},
		{Start: 100, End: 200, CoarseStep: 10, FineStep: 5, DwellSec: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestCoarseFrequenciesCoverage(t *testing.T) {
	p := SweepPlan{Start: 100, End: 1000, CoarseStep: 250, FineStep: 50, DwellSec: 1}
	fs := p.CoarseFrequencies()
	want := []units.Frequency{100, 350, 600, 850, 1000}
	if len(fs) != len(want) {
		t.Fatalf("got %v, want %v", fs, want)
	}
	for i := range want {
		if math.Abs(float64(fs[i]-want[i])) > 1e-6 {
			t.Fatalf("got %v, want %v", fs, want)
		}
	}
}

func TestRefineAround(t *testing.T) {
	p := PaperSweep()
	fs := p.RefineAround(650 * units.Hz)
	if fs[0] != 450*units.Hz {
		t.Fatalf("refine low edge = %v, want 450Hz", fs[0])
	}
	if fs[len(fs)-1] != 850*units.Hz {
		t.Fatalf("refine high edge = %v, want 850Hz", fs[len(fs)-1])
	}
	// 50 Hz spacing.
	for i := 1; i < len(fs); i++ {
		if step := fs[i] - fs[i-1]; math.Abs(float64(step-50)) > 1e-6 {
			t.Fatalf("refine step = %v, want 50Hz", step)
		}
	}
}

func TestRefineAroundClipsToBounds(t *testing.T) {
	p := PaperSweep()
	fs := p.RefineAround(150 * units.Hz)
	if fs[0] < p.Start {
		t.Fatalf("refinement escaped below sweep start: %v", fs[0])
	}
	fs = p.RefineAround(16850 * units.Hz)
	if fs[len(fs)-1] > p.End {
		t.Fatalf("refinement escaped above sweep end: %v", fs[len(fs)-1])
	}
}

func TestStepRangeExactGridPoints(t *testing.T) {
	// Regression: the old accumulating loop (f += step) compounded float64
	// error, so late points drifted off the nominal grid. Index-based
	// generation must yield bit-exact lo + i*step everywhere.
	p := SweepPlan{Start: 100, End: 16900, CoarseStep: 200, FineStep: 50, DwellSec: 5}
	fs := p.CoarseFrequencies()
	if len(fs) != 85 {
		t.Fatalf("point count = %d, want 85", len(fs))
	}
	for i, f := range fs {
		if want := p.Start + units.Frequency(i)*p.CoarseStep; f != want {
			t.Fatalf("point %d = %v, want exactly %v", i, f, want)
		}
	}

	// Fractional step: every point must still be exactly lo + i*step.
	lo, step := units.Frequency(100), units.Frequency(0.055)
	hi := lo + 1000*step
	got := stepRange(lo, hi, step)
	for i, f := range got {
		if want := lo + units.Frequency(i)*step; f != want {
			t.Fatalf("fractional point %d = %.17g, want exactly %.17g", i, float64(f), float64(want))
		}
	}
}

func TestStepRangeNoNearDuplicateTerminal(t *testing.T) {
	// A 100 Hz start, 200 Hz step sweep whose end lies on the grid must
	// end exactly at End — not at End plus an accumulated-error twin.
	fs := stepRange(100, 1700, 200)
	for i := 1; i < len(fs); i++ {
		if gap := fs[i] - fs[i-1]; gap < 100 {
			t.Fatalf("near-duplicate points %v and %v (gap %v)", fs[i-1], fs[i], gap)
		}
	}
	if fs[len(fs)-1] != 1700 {
		t.Fatalf("terminal point = %v, want 1700", fs[len(fs)-1])
	}
}

func TestFrequencyKey(t *testing.T) {
	a := units.Frequency(650.3)
	b := (a - 7.3) + 7.3 // ULP-different representation of the same value
	if FrequencyKey(a) != FrequencyKey(b) {
		t.Fatalf("ULP twins got distinct keys: %d vs %d", FrequencyKey(a), FrequencyKey(b))
	}
	if FrequencyKey(650) == FrequencyKey(650.05) {
		t.Fatal("50 mHz-distinct frequencies collided")
	}
}

func TestRefineAroundAllNoNearDuplicatesAcrossCenters(t *testing.T) {
	// Regression: two centers one CoarseStep apart produce overlapping
	// fine passes whose grids are computed from different origins. With a
	// fractional step the shared points differ by a ULP, and the old
	// exact-equality dedup kept both copies.
	p := SweepPlan{Start: 100, End: 2000, CoarseStep: 7.3, FineStep: 0.73, DwellSec: 1}
	c1 := units.Frequency(650.3)
	c2 := c1 + p.CoarseStep
	fs := p.RefineAroundAll([]units.Frequency{c1, c2}, nil)
	if len(fs) == 0 {
		t.Fatal("no refinement points")
	}
	for i := 1; i < len(fs); i++ {
		if gap := fs[i] - fs[i-1]; gap < p.FineStep/2 {
			t.Fatalf("near-duplicate frequencies %.17g and %.17g (gap %v)",
				float64(fs[i-1]), float64(fs[i]), gap)
		}
	}
}

func TestRefineAroundAllDedups(t *testing.T) {
	p := PaperSweep()
	fs := p.RefineAroundAll([]units.Frequency{600, 650}, nil)
	seen := map[units.Frequency]bool{}
	for _, f := range fs {
		if seen[f] {
			t.Fatalf("duplicate frequency %v", f)
		}
		seen[f] = true
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Fatal("frequencies not sorted")
		}
	}
	// An already measured frequency is skipped even when the measured
	// copy differs from the refinement grid point by float rounding.
	twin := fs[3] * (1 + 1e-15)
	rest := p.RefineAroundAll([]units.Frequency{600, 650}, []units.Frequency{twin})
	if len(rest) != len(fs)-1 {
		t.Fatalf("measured twin of %v not skipped: %d points, want %d", fs[3], len(rest), len(fs)-1)
	}
	for _, f := range rest {
		if FrequencyKey(f) == FrequencyKey(twin) {
			t.Fatalf("measured frequency %v refined again", f)
		}
	}
}

func TestBandOps(t *testing.T) {
	b := Band{Low: 300, High: 1300}
	if b.Width() != 1000 {
		t.Fatalf("Width = %v, want 1000", b.Width())
	}
	if got := b.String(); got != "[300Hz, 1.3kHz]" {
		t.Fatalf("String = %q", got)
	}
}

func TestCoalesceBands(t *testing.T) {
	freqs := []units.Frequency{300, 350, 400, 1200, 1250, 5000}
	bands := CoalesceBands(freqs, 100)
	if len(bands) != 3 {
		t.Fatalf("got %d bands %v, want 3", len(bands), bands)
	}
	if bands[0].Low != 300 || bands[0].High != 400 {
		t.Fatalf("band 0 = %v", bands[0])
	}
	if bands[1].Low != 1200 || bands[1].High != 1250 {
		t.Fatalf("band 1 = %v", bands[1])
	}
	if bands[2].Low != 5000 || bands[2].High != 5000 {
		t.Fatalf("band 2 = %v", bands[2])
	}
}

func TestCoalesceBandsUnsortedInput(t *testing.T) {
	freqs := []units.Frequency{400, 300, 350}
	bands := CoalesceBands(freqs, 100)
	if len(bands) != 1 || bands[0].Low != 300 || bands[0].High != 400 {
		t.Fatalf("got %v, want single [300,400]", bands)
	}
	if CoalesceBands(nil, 100) != nil {
		t.Fatal("empty input should give nil")
	}
}

func TestCoalesceBandsProperty(t *testing.T) {
	// Every input frequency must be contained in exactly one output band.
	prop := func(raw []uint16) bool {
		freqs := make([]units.Frequency, 0, len(raw))
		for _, r := range raw {
			freqs = append(freqs, units.Frequency(r))
		}
		bands := CoalesceBands(freqs, 50)
		for _, f := range freqs {
			n := 0
			for _, b := range bands {
				if f >= b.Low && f <= b.High {
					n++
				}
			}
			if n == 0 {
				return false
			}
		}
		// Bands must be disjoint and ordered.
		for i := 1; i < len(bands); i++ {
			if bands[i].Low <= bands[i-1].High {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// rmsOf computes the RMS of a sample slice.
func rmsOf(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, s := range samples {
		sum += s * s
	}
	return math.Sqrt(sum / float64(len(samples)))
}

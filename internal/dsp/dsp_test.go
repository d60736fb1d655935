package dsp

import (
	"math"
	"math/rand"
	"testing"

	"deepnote/internal/units"
)

const rate = 4096.0

func bankFreqs() []units.Frequency {
	var fs []units.Frequency
	for f := 30 * units.Hz; f <= 1400*units.Hz; f += 10 * units.Hz {
		fs = append(fs, f)
	}
	return fs
}

// The streaming Goertzel bank must agree with the direct windowed DFT on
// arbitrary signals — same window, same bins, same powers.
func TestBankMatchesDFT(t *testing.T) {
	freqs := bankFreqs()
	b, err := NewBank(rate, 512, freqs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	samples := make([]float64, 512)
	for i := range samples {
		samples[i] = rng.NormFloat64() + 0.1*math.Sin(2*math.Pi*650*float64(i)/rate)
	}
	var frame Frame
	ok := false
	for _, x := range samples {
		frame, ok = b.Push(x)
	}
	if !ok {
		t.Fatal("window did not complete")
	}
	ref := DFTAt(samples, rate, freqs, nil)
	for i := range freqs {
		if diff := math.Abs(frame.Power[i] - ref[i]); diff > 1e-6*(1+ref[i]) {
			t.Fatalf("bin %v: goertzel %.9g vs dft %.9g", freqs[i], frame.Power[i], ref[i])
		}
	}
}

// A pure tone on a bin frequency must read back with its amplitude, and a
// tone halfway between bins must lose no more than the Hann scallop.
func TestBankToneAmplitude(t *testing.T) {
	freqs := bankFreqs()
	const amp = 0.05
	feed := func(f units.Frequency) Frame {
		b, err := NewBank(rate, 512, freqs)
		if err != nil {
			t.Fatal(err)
		}
		var frame Frame
		for i := 0; i < 512; i++ {
			frame, _ = b.Push(amp * math.Sin(f.AngularVelocity()*float64(i)/rate))
		}
		return frame
	}
	onBin := feed(650 * units.Hz)
	peak, bestAmp := 0, 0.0
	for i, p := range onBin.Power {
		if a := Amp(p, 512); a > bestAmp {
			bestAmp, peak = a, i
		}
	}
	if freqs[peak] != 650*units.Hz {
		t.Fatalf("peak at %v, want 650 Hz", freqs[peak])
	}
	if bestAmp < 0.95*amp || bestAmp > 1.05*amp {
		t.Fatalf("on-bin amplitude estimate %.4f, want ≈ %.4f", bestAmp, amp)
	}
	offBin := feed(655 * units.Hz) // worst case for the 10 Hz grid
	bestAmp = 0
	for _, p := range offBin.Power {
		if a := Amp(p, 512); a > bestAmp {
			bestAmp = a
		}
	}
	// Worst-case Hann scallop for a 10 Hz grid over 8 Hz bins is ≈ −2.3 dB.
	if bestAmp < 0.75*amp {
		t.Fatalf("off-bin scallop loss too high: estimate %.4f of %.4f", bestAmp, amp)
	}
	if onBin.TotalMS < 0.9*amp*amp/2 || onBin.TotalMS > 1.1*amp*amp/2 {
		t.Fatalf("TotalMS = %g, want ≈ %g", onBin.TotalMS, amp*amp/2)
	}
}

// The bank's steady state must not allocate: it runs inside the serving
// simulation's telemetry loop.
func TestBankSteadyStateAllocFree(t *testing.T) {
	b, err := NewBank(rate, 256, bankFreqs())
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		for j := 0; j < 256; j++ {
			i++
			b.Push(math.Sin(0.3 * float64(i)))
		}
	})
	if allocs != 0 {
		t.Fatalf("bank steady state allocates %.1f/window, want 0", allocs)
	}
}

func TestBankRejectsBadConfig(t *testing.T) {
	cases := []struct {
		rate   float64
		window int
		freqs  []units.Frequency
	}{
		{0, 512, []units.Frequency{650}},
		{rate, 8, []units.Frequency{650}},
		{rate, 512, nil},
		{rate, 512, []units.Frequency{0}},
		{rate, 512, []units.Frequency{3000}}, // ≥ Nyquist
		{math.NaN(), 512, []units.Frequency{650}},
		{math.Inf(1), 512, []units.Frequency{650}},
		{rate, 512, []units.Frequency{units.Frequency(math.NaN())}},
	}
	for i, c := range cases {
		if _, err := NewBank(c.rate, c.window, c.freqs); err == nil {
			t.Fatalf("case %d: bad config accepted", i)
		}
	}
}

// Goertzel single-bin detector agrees with its own bank on a block.
func TestGoertzelSingleBin(t *testing.T) {
	g := NewGoertzel(650*units.Hz, rate)
	var sum float64
	for i := 0; i < 512; i++ {
		x := 0.1 * math.Sin(2*math.Pi*650*float64(i)/rate)
		g.Push(x)
		sum += x * x
	}
	// Rectangular window: |X| = A·N/2.
	if a := 2 * math.Sqrt(g.Power()) / 512; a < 0.095 || a > 0.105 {
		t.Fatalf("amplitude %.4f, want ≈ 0.1", a)
	}
}

// refBank is the sample-major bank the block kernel replaced: every
// sample windows itself and steps every bin's recurrence.
type refBank struct {
	coeff, hann, s1, s2, power []float64
	sumSq                      float64
	n, frames                  int
}

func newRefBank(b *Bank) *refBank {
	k := len(b.coeff)
	return &refBank{
		coeff: b.coeff, hann: b.hann,
		s1: make([]float64, k), s2: make([]float64, k), power: make([]float64, k),
	}
}

func (b *refBank) push(x float64) (Frame, bool) {
	b.sumSq += x * x
	xw := x * b.hann[b.n]
	for i := range b.coeff {
		s0 := b.coeff[i]*b.s1[i] - b.s2[i] + xw
		b.s2[i] = b.s1[i]
		b.s1[i] = s0
	}
	b.n++
	if b.n < len(b.hann) {
		return Frame{}, false
	}
	for i := range b.coeff {
		b.power[i] = b.s1[i]*b.s1[i] + b.s2[i]*b.s2[i] - b.coeff[i]*b.s1[i]*b.s2[i]
		b.s1[i], b.s2[i] = 0, 0
	}
	f := Frame{Index: b.frames, Power: b.power, TotalMS: b.sumSq / float64(len(b.hann))}
	b.frames++
	b.n = 0
	b.sumSq = 0
	return f, true
}

func sameFrame(a, b Frame) bool {
	if a.Index != b.Index || math.Float64bits(a.TotalMS) != math.Float64bits(b.TotalMS) || len(a.Power) != len(b.Power) {
		return false
	}
	for i := range a.Power {
		if math.Float64bits(a.Power[i]) != math.Float64bits(b.Power[i]) {
			return false
		}
	}
	return true
}

// The block kernel must be bit-identical to the per-sample recurrence
// however the stream is cut: random chunk sizes that straddle window
// ends, and bin counts that leave every remainder after the eight-bin
// groups.
func TestPushBlockMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	all := bankFreqs()
	// 1–17 bins reach every mix of the kernel's 8-wide and scalar passes;
	// len(all) is the 138-bin fingerprint grid.
	var binCounts []int
	for n := 1; n <= 17; n++ {
		binCounts = append(binCounts, n)
	}
	binCounts = append(binCounts, len(all))
	for _, bins := range binCounts {
		for _, window := range []int{16, 100, 512} {
			b, err := NewBank(rate, window, all[:bins])
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefBank(b)
			stream := make([]float64, 7*window+rng.Intn(window))
			for i := range stream {
				stream[i] = rng.NormFloat64() + 0.3*math.Sin(0.7*float64(i))
			}
			frames := 0
			for rest := stream; len(rest) > 0; {
				chunk := rest[:1+rng.Intn(min(len(rest), 2*window))]
				rest = rest[len(chunk):]
				var want []Frame
				for _, x := range chunk {
					if f, ok := ref.push(x); ok {
						f.Power = append([]float64(nil), f.Power...)
						want = append(want, f)
					}
				}
				for len(chunk) > 0 {
					n, f, ok := b.PushBlock(chunk)
					if n == 0 {
						t.Fatal("PushBlock consumed nothing")
					}
					chunk = chunk[n:]
					if !ok {
						continue
					}
					if len(want) == 0 || !sameFrame(f, want[0]) {
						t.Fatalf("%d bins, window %d: frame %d differs from the per-sample recurrence", bins, window, f.Index)
					}
					want = want[1:]
					frames++
				}
				if len(want) != 0 {
					t.Fatalf("%d bins, window %d: %d frames missing", bins, window, len(want))
				}
			}
			if frames < 7 {
				t.Fatalf("%d bins, window %d: only %d frames compared", bins, window, frames)
			}
			// Push is the one-sample case of the same kernel.
			for i := 0; i < 3*window; i++ {
				x := rng.NormFloat64()
				want, wok := ref.push(x)
				got, ok := b.Push(x)
				if ok != wok || (ok && !sameFrame(got, want)) {
					t.Fatalf("%d bins, window %d: Push diverged at sample %d", bins, window, i)
				}
			}
		}
	}
}

// frameSink keeps the benchmarked call's result live.
var frameSink Frame

func BenchmarkBankPushBlock(b *testing.B) {
	bank, err := NewBank(rate, 512, bankFreqs())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	window := make([]float64, 512)
	for i := range window {
		window[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for rest := window; len(rest) > 0; {
			n, f, ok := bank.PushBlock(rest)
			rest = rest[n:]
			if ok {
				frameSink = f
			}
		}
	}
}

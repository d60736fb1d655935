// Package dsp is the spectral estimation toolkit behind the operator-side
// attack fingerprinting: sliding Goertzel banks that watch a fixed set of
// frequencies in the drive-tray vibration telemetry, plus a windowed-DFT
// reference path used as a fallback and as the differential oracle in
// tests. Everything here is deterministic — the same sample stream always
// produces the same frames — and the bank's steady state is allocation
// free, so it can ride inside the simulation hot loop.
//
// The Goertzel recurrence evaluates one DFT bin with two multiplies per
// sample, which is the right trade when the interesting spectrum is a
// handful of known bands (the servo-resonance window of §4.1) rather than
// the full FFT range.
//
// The bank processes samples in blocks, bin-major: it Hann-windows the
// block up to the next window end once, then runs each bin's recurrence
// over the whole block in registers, eight bins interleaved so their
// dependency chains overlap. Every bin sees the same floating-point
// operations in the same order as a sample-at-a-time loop, so the frames
// are bit-identical however the stream is split into blocks; Push is the
// one-sample case of the same kernel.
package dsp

import (
	"fmt"
	"math"

	"deepnote/internal/units"
)

// Goertzel evaluates signal power at a single frequency over blocks of
// samples. The frequency does not need to lie on an integer DFT bin.
type Goertzel struct {
	coeff float64 // 2·cos(ω)
	s1    float64
	s2    float64
}

// NewGoertzel returns a detector for freq at the given sample rate.
func NewGoertzel(freq units.Frequency, sampleRateHz float64) Goertzel {
	w := freq.AngularVelocity() / sampleRateHz
	return Goertzel{coeff: 2 * math.Cos(w)}
}

// Push feeds one sample into the recurrence.
func (g *Goertzel) Push(x float64) {
	s0 := g.coeff*g.s1 - g.s2 + x
	g.s2 = g.s1
	g.s1 = s0
}

// Power returns |X(f)|² for the samples pushed so far.
func (g *Goertzel) Power() float64 {
	return g.s1*g.s1 + g.s2*g.s2 - g.coeff*g.s1*g.s2
}

// Frame is one completed analysis window. Power aliases the bank's
// internal storage and is valid until the next frame completes; callers
// that need to keep it must copy.
type Frame struct {
	// Index is the 0-based window index since the bank was created.
	Index int
	// Power holds per-bin |X(f)|² of the Hann-windowed block, in the
	// order of the bank's frequency list.
	Power []float64
	// TotalMS is the mean square of the raw (unwindowed) block — the
	// total signal power the tonal bins are judged against.
	TotalMS float64
}

// Bank runs a set of Goertzel bins over a common Hann-windowed block. It
// is the streaming front half of the attack fingerprinter: feed samples
// in with PushBlock (or Push), get a Frame back every windowLen samples.
// After construction the bank never allocates.
type Bank struct {
	freqs  []units.Frequency
	coeff  []float64
	hann   []float64
	xw     []float64 // windowed-sample scratch, one window long
	s1, s2 []float64
	sumSq  float64
	n      int
	frames int
	power  []float64 // reused Frame.Power storage
}

// NewBank builds a bank of Goertzel bins at the given frequencies, all
// sharing one Hann window of windowLen samples.
func NewBank(sampleRateHz float64, windowLen int, freqs []units.Frequency) (*Bank, error) {
	if !(sampleRateHz > 0) || math.IsInf(sampleRateHz, 0) {
		return nil, fmt.Errorf("dsp: sample rate %v must be finite and > 0", sampleRateHz)
	}
	if windowLen < 16 {
		return nil, fmt.Errorf("dsp: window of %d samples is too short (min 16)", windowLen)
	}
	if len(freqs) == 0 {
		return nil, fmt.Errorf("dsp: bank needs at least one frequency")
	}
	b := &Bank{
		freqs: append([]units.Frequency(nil), freqs...),
		coeff: make([]float64, len(freqs)),
		hann:  make([]float64, windowLen),
		xw:    make([]float64, windowLen),
		s1:    make([]float64, len(freqs)),
		s2:    make([]float64, len(freqs)),
		power: make([]float64, len(freqs)),
	}
	for i, f := range freqs {
		if !(f > 0 && f.Hertz() < sampleRateHz/2) {
			return nil, fmt.Errorf("dsp: frequency %v outside (0, Nyquist %v Hz)", f, sampleRateHz/2)
		}
		b.coeff[i] = 2 * math.Cos(f.AngularVelocity()/sampleRateHz)
	}
	for i := range b.hann {
		b.hann[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(windowLen)))
	}
	return b, nil
}

// Freqs returns the bank's bin frequencies (shared storage; do not mutate).
func (b *Bank) Freqs() []units.Frequency { return b.freqs }

// Push feeds one sample. When the sample completes a window, the frame
// for that window is returned with ok = true.
func (b *Bank) Push(x float64) (Frame, bool) {
	one := [1]float64{x}
	_, f, ok := b.PushBlock(one[:])
	return f, ok
}

// PushBlock feeds samples up to the end of the current window and
// returns how many it consumed. When they complete the window, the frame
// for that window is returned with ok = true; the caller feeds the rest
// of its block in further calls.
func (b *Bank) PushBlock(samples []float64) (consumed int, f Frame, ok bool) {
	m := len(b.hann) - b.n
	if len(samples) < m {
		m = len(samples)
	}
	xw := b.xw[:m]
	hann := b.hann[b.n : b.n+m]
	for j, x := range samples[:m] {
		b.sumSq += x * x
		xw[j] = x * hann[j]
	}
	goertzelBlock(b.coeff, b.s1, b.s2, xw)
	b.n += m
	if b.n < len(b.hann) {
		return m, Frame{}, false
	}
	for i := range b.coeff {
		b.power[i] = b.s1[i]*b.s1[i] + b.s2[i]*b.s2[i] - b.coeff[i]*b.s1[i]*b.s2[i]
		b.s1[i], b.s2[i] = 0, 0
	}
	f = Frame{
		Index:   b.frames,
		Power:   b.power,
		TotalMS: b.sumSq / float64(len(b.hann)),
	}
	b.frames++
	b.n = 0
	b.sumSq = 0
	return m, f, true
}

// goertzelBlock advances every bin's recurrence s0 = coeff·s1 − s2 + x
// over the windowed samples xw. Each bin's chain is latency-bound, so the
// kernel runs eight independent chains per pass to fill the pipeline,
// then the remaining bins one at a time. Every bin evaluates the same
// expression in the same sample order on both paths, so the result is
// bit-identical however the bins are grouped.
func goertzelBlock(coeff, s1, s2, xw []float64) {
	i := 0
	for ; i+8 <= len(coeff); i += 8 {
		c0, c1, c2, c3 := coeff[i], coeff[i+1], coeff[i+2], coeff[i+3]
		c4, c5, c6, c7 := coeff[i+4], coeff[i+5], coeff[i+6], coeff[i+7]
		a0, a1, a2, a3 := s1[i], s1[i+1], s1[i+2], s1[i+3]
		a4, a5, a6, a7 := s1[i+4], s1[i+5], s1[i+6], s1[i+7]
		z0, z1, z2, z3 := s2[i], s2[i+1], s2[i+2], s2[i+3]
		z4, z5, z6, z7 := s2[i+4], s2[i+5], s2[i+6], s2[i+7]
		for _, x := range xw {
			a0, z0 = c0*a0-z0+x, a0
			a1, z1 = c1*a1-z1+x, a1
			a2, z2 = c2*a2-z2+x, a2
			a3, z3 = c3*a3-z3+x, a3
			a4, z4 = c4*a4-z4+x, a4
			a5, z5 = c5*a5-z5+x, a5
			a6, z6 = c6*a6-z6+x, a6
			a7, z7 = c7*a7-z7+x, a7
		}
		s1[i], s1[i+1], s1[i+2], s1[i+3] = a0, a1, a2, a3
		s1[i+4], s1[i+5], s1[i+6], s1[i+7] = a4, a5, a6, a7
		s2[i], s2[i+1], s2[i+2], s2[i+3] = z0, z1, z2, z3
		s2[i+4], s2[i+5], s2[i+6], s2[i+7] = z4, z5, z6, z7
	}
	for ; i < len(coeff); i++ {
		c, a, z := coeff[i], s1[i], s2[i]
		for _, x := range xw {
			a, z = c*a-z+x, a
		}
		s1[i], s2[i] = a, z
	}
}

// Frames returns how many windows have completed.
func (b *Bank) Frames() int { return b.frames }

// Amp converts a bin power from a Hann-windowed block of n samples into
// the amplitude estimate of a sinusoid at that bin's frequency (the Hann
// coherent gain is 1/2, so a tone of amplitude A yields |X| = A·n/4).
func Amp(power float64, n int) float64 {
	if power <= 0 {
		return 0
	}
	return 4 * math.Sqrt(power) / float64(n)
}

// DFTAt computes Hann-windowed DFT power at arbitrary frequencies — the
// reference implementation the Goertzel bank is differentially tested
// against. out is reused when it has capacity.
func DFTAt(samples []float64, sampleRateHz float64, freqs []units.Frequency, out []float64) []float64 {
	if cap(out) >= len(freqs) {
		out = out[:len(freqs)]
	} else {
		out = make([]float64, len(freqs))
	}
	n := len(samples)
	for k, f := range freqs {
		w := f.AngularVelocity() / sampleRateHz
		var re, im float64
		for i, x := range samples {
			h := 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n)))
			xw := x * h
			re += xw * math.Cos(w*float64(i))
			im -= xw * math.Sin(w*float64(i))
		}
		out[k] = re*re + im*im
	}
	return out
}

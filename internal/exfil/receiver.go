// The demodulator: per-symbol Goertzel bins at the two carrier tones over
// rectangular symbol windows, preamble + sync acquisition by sliding
// soft correlation, preamble-trained decision references (so the
// asymmetric link budget — Tone1 rides a weaker harmonic — does not bias
// FSK decisions, and OOK gets its threshold), then hard symbol decisions
// into the frame codec. Per-symbol soft SNR is logged alongside.
//
// Acquisition slides the pattern in steps of L/8 samples (L = symbol
// length), and every candidate offset reads the symbol windows at
// off + k·L. Those positions all lie on a grid of pitch g = gcd(L/8, L),
// and neighbouring offsets share most of them, so the receiver computes
// each grid position's tone powers once into a memo indexed by pos/g and
// sums the correlation from it; preamble training reads the same memo.
// The sums run in the same order as a per-offset rescan would, so the
// result is bit-identical to it.
package exfil

import (
	"math"

	"deepnote/internal/dsp"
)

// Receiver demodulates rendered waveforms.
type Receiver struct {
	m modem
}

// NewReceiver builds a receiver, rejecting out-of-range configuration.
func NewReceiver(cfg ModemConfig) (*Receiver, error) {
	m, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	return &Receiver{m: m}, nil
}

// RxFrame is one decoded frame.
type RxFrame struct {
	// Payload is the recovered payload; nil unless OK.
	Payload []byte
	// OK reports bit-exact recovery (FEC decoded, CRC verified).
	OK bool
	// Err is the decode failure when !OK.
	Err error
	// Corrections is how many byte errors the RS layer repaired.
	Corrections int
	// BitErrors counts raw symbol decisions the FEC layer had to work
	// against, estimated from re-encoding the recovered codeword. -1
	// when the frame did not decode.
	BitErrors int
	// MeanSNRdB is the mean per-symbol soft SNR over the codeword.
	MeanSNRdB float64
}

// RxResult is a demodulation run over one waveform.
type RxResult struct {
	// Synced reports preamble acquisition; Offset is the first frame's
	// sample offset.
	Synced bool
	Offset int
	// Frames holds per-frame outcomes in wire order.
	Frames []RxFrame
}

// symPower returns the Goertzel power at both tones over the symbol
// window starting at off.
func (r *Receiver) symPower(wave []float64, off int) (p0, p1 float64) {
	g0 := dsp.NewGoertzel(r.m.tone0, r.m.sampleRate)
	g1 := dsp.NewGoertzel(r.m.tone1, r.m.sampleRate)
	for i := 0; i < r.m.symbolLen; i++ {
		x := wave[off+i]
		g0.Push(x)
		g1.Push(x)
	}
	return g0.Power(), g1.Power()
}

const powerEps = 1e-12

// symMemo caches symPower results for symbol windows starting on a grid
// of pitch g.
type symMemo struct {
	g    int
	pow  [][2]float64
	done []bool
}

func newSymMemo(g, maxPos int) symMemo {
	n := maxPos/g + 1
	return symMemo{g: g, pow: make([][2]float64, n), done: make([]bool, n)}
}

// memoPower returns symPower at pos, a multiple of the memo's pitch within
// its range, computing it on first use.
func (r *Receiver) memoPower(m *symMemo, wave []float64, pos int) (p0, p1 float64) {
	i := pos / m.g
	if !m.done[i] {
		m.pow[i][0], m.pow[i][1] = r.symPower(wave, pos)
		m.done[i] = true
	}
	return m.pow[i][0], m.pow[i][1]
}

// margin is the normalized two-bin margin of tone1 over tone0. For OOK
// the space symbol is silence, so its expected margin is zero rather than
// −1 — the correlation still peaks at the true offset, and the tone0 bin
// acts as a noise reference that cancels broadband bursts.
func margin(p0, p1 float64) float64 {
	return (p1 - p0) / (p0 + p1 + powerEps)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Demodulate decodes up to maxFrames back-to-back frames from the
// waveform. Acquisition scans symbol-aligned and sub-symbol offsets over
// the first two frame lengths; decoding then proceeds at a fixed stride.
func (r *Receiver) Demodulate(wave []float64, maxFrames int) RxResult {
	res := RxResult{}
	L := r.m.symbolLen
	pattern := r.m.preamblePattern()
	patSamples := len(pattern) * L
	frameSamples := r.m.frameBits() * L

	scanEnd := len(wave) - patSamples
	if limit := 2 * frameSamples; scanEnd > limit {
		scanEnd = limit
	}
	// Soft-correlate the preamble+sync pattern at every candidate offset:
	// per expected symbol, the margin of the expected tone over the
	// alternative. Positive means the pattern is present.
	step := L / 8
	var offs []int
	var scores []float64
	peak := 0.0
	var memo symMemo
	if scanEnd >= 0 {
		memo = newSymMemo(gcd(step, L), scanEnd+patSamples-L)
	}
	for off := 0; off <= scanEnd; off += step {
		var s float64
		for k, bit := range pattern {
			m := margin(r.memoPower(&memo, wave, off+k*L))
			if bit == 1 {
				s += m
			} else {
				s -= m
			}
		}
		offs = append(offs, off)
		scores = append(scores, s)
		if s > peak {
			peak = s
		}
	}
	if peak <= 0 {
		return res
	}
	// Every frame carries the pattern, so the global maximum may be a
	// LATER frame's preamble. Acquisition wants the earliest one: take
	// the first candidate within 60% of the global peak, then climb to
	// the local maximum inside one symbol — the correlation peak's width.
	best, anchor, bestScore := -1, -1, 0.0
	for i, s := range scores {
		if anchor < 0 {
			if s >= 0.6*peak {
				anchor, best, bestScore = offs[i], offs[i], s
			}
			continue
		}
		if offs[i] > anchor+L {
			break
		}
		if s > bestScore {
			best, bestScore = offs[i], s
		}
	}
	if best < 0 {
		return res
	}
	res.Synced = true
	res.Offset = best

	// Preamble-trained references over the known alternating symbols.
	// FSK: mean per-tone mark power, to normalize the asymmetric link.
	// OOK: the decision variable is p1 − c·p0 — the unused tone0 bin is a
	// contemporaneous noise reference, weighted by the trained spectral
	// ratio c between the bins, so broadband bursts (which raise both bins
	// in that ratio) cancel instead of crossing a power threshold as false
	// marks, while colored steady noise contributes little extra variance.
	// ref1/ref0 are the decision variable's trained mark/space means.
	var on0, on1, sp0, sp1 float64
	var n0, n1 int
	for s := 0; s < r.m.preambleBits; s++ {
		p0, p1 := r.memoPower(&memo, wave, best+s*L)
		if pattern[s] == 1 {
			on0 += p0
			on1 += p1
			n1++
		} else {
			sp0 += p0
			sp1 += p1
			n0++
		}
	}
	ref1 := on1 / float64(n1)
	ref0 := sp0 / float64(n0)
	noiseRatio := 0.0
	if r.m.scheme == SchemeOOK {
		noiseRatio = sp1 / (sp0 + powerEps)
		ref1 = (on1 - noiseRatio*on0) / float64(n1)
		ref0 = (sp1 - noiseRatio*sp0) / float64(n0)
	}

	cwBits := 8 * (r.m.dataBytes + r.m.parityBytes)
	bits := make([]byte, cwBits)
	for f := 0; f < maxFrames; f++ {
		frameOff := best + f*frameSamples
		cwOff := frameOff + patSamples
		if cwOff+cwBits*L > len(wave) {
			break
		}
		var snrSum float64
		for s := 0; s < cwBits; s++ {
			p0, p1 := r.symPower(wave, cwOff+s*L)
			var bit byte
			var sig, floor float64
			if r.m.scheme == SchemeOOK {
				d := p1 - noiseRatio*p0
				thresh := ref0 + (ref1-ref0)/2
				if d > thresh {
					bit = 1
					sig, floor = p1, noiseRatio*p0+powerEps
				} else {
					// A confident space is as far below the trained mark
					// level as a confident mark is above the floor.
					sig, floor = ref1+powerEps, p1+powerEps
				}
			} else {
				// Preamble-normalized comparison cancels the asymmetric
				// harmonic roll-off between the two carriers.
				q0 := p0 / (ref0 + powerEps)
				q1 := p1 / (ref1 + powerEps)
				if q1 > q0 {
					bit = 1
					sig, floor = p1, p0*ref1/(ref0+powerEps)+powerEps
				} else {
					sig, floor = p0, p1*ref0/(ref1+powerEps)+powerEps
				}
			}
			bits[s] = bit
			snrSum += 10 * math.Log10((sig+powerEps)/(floor+powerEps))
		}
		frame := RxFrame{MeanSNRdB: snrSum / float64(cwBits)}
		payload, corrections, err := r.m.decodeCodeword(bits)
		if err != nil {
			frame.Err = err
			frame.BitErrors = -1
		} else {
			frame.OK = true
			frame.Payload = payload
			frame.Corrections = corrections
			frame.BitErrors = r.countBitErrors(bits, payload)
		}
		res.Frames = append(res.Frames, frame)
	}
	return res
}

// countBitErrors re-encodes the recovered payload and counts raw symbol
// decisions that differed — the pre-FEC bit error count for this frame.
func (r *Receiver) countBitErrors(got []byte, payload []byte) int {
	clean, err := r.m.encodeFrame(payload)
	if err != nil {
		return -1
	}
	clean = clean[r.m.preambleBits+syncBits:]
	errs := 0
	for i := range got {
		if got[i] != clean[i] {
			errs++
		}
	}
	return errs
}

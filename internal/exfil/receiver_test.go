package exfil

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// synthWave renders frames of random payloads as clean tone bursts (FSK:
// tone0 or tone1 per symbol; OOK: tone1 or silence) behind a random
// lead-in and under Gaussian noise of a random level, so some waves
// decode, some decode with errors and some sync wrongly or not at all.
func synthWave(t testing.TB, r *Receiver, rng *rand.Rand) []float64 {
	t.Helper()
	m := r.m
	L := m.symbolLen
	var bits []byte
	for f := rng.Intn(3); f >= 0; f-- {
		payload := make([]byte, 1+rng.Intn(m.MaxPayload()))
		rng.Read(payload)
		fb, err := m.encodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		bits = append(bits, fb...)
	}
	// Acquisition expects the first preamble within a couple of symbols
	// (a longer silent lead-in lets a shifted alternating preamble win);
	// one wave in four gets a long lead-in anyway.
	lead := rng.Intn(3 * L / 2)
	if rng.Intn(4) == 0 {
		lead = rng.Intn(3 * m.frameBits() * L / 2)
	}
	if rng.Intn(4) == 0 {
		bits = bits[:rng.Intn(len(bits))] // truncated mid-frame
	}
	wave := make([]float64, lead+len(bits)*L+rng.Intn(L))
	w0 := m.tone0.AngularVelocity() / m.sampleRate
	w1 := m.tone1.AngularVelocity() / m.sampleRate
	for s, b := range bits {
		for i := 0; i < L; i++ {
			n := lead + s*L + i
			switch {
			case b == 1:
				wave[n] = 0.6 * math.Sin(w1*float64(n))
			case m.scheme == SchemeFSK:
				wave[n] = math.Sin(w0 * float64(n))
			}
		}
	}
	sigma := math.Pow(10, rng.Float64()*3-2) // 0.01 … 10
	for i := range wave {
		wave[i] += sigma * rng.NormFloat64()
	}
	return wave
}

// The memoized acquisition must reproduce the per-offset rescan exactly:
// the same sync decision, offset, and every frame field, bit for bit. The
// 4000/40 config has L = 100, so the L/8 step of 12 does not divide L and
// the memo runs on the gcd grid of pitch 4.
func TestDemodulateMatchesPerOffsetScan(t *testing.T) {
	// Short codewords keep the reference's rescan affordable.
	small := func(c ModemConfig) ModemConfig {
		c.DataBytes, c.ParityBytes = Ptr(16), Ptr(4)
		return c
	}
	configs := []struct {
		name   string
		cfg    ModemConfig
		trials int
	}{
		{"fsk default", ModemConfig{}, 2},
		{"fsk 64 baud", small(ModemConfig{SymbolRate: Ptr(64.0)}), 6},
		{"ook", small(ModemConfig{Scheme: SchemeOOK}), 6},
		{"fsk L=100", small(ModemConfig{SampleRate: Ptr(4000.0), SymbolRate: Ptr(40.0)}), 6},
		{"ook L=100 short preamble", ModemConfig{Scheme: SchemeOOK, SampleRate: Ptr(4000.0), SymbolRate: Ptr(40.0),
			PreambleBits: Ptr(8), DataBytes: Ptr(8), ParityBytes: Ptr(4)}, 6},
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range configs {
		r, err := NewReceiver(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		synced, ok := 0, 0
		for trial := 0; trial < c.trials; trial++ {
			wave := synthWave(t, r, rng)
			maxFrames := 1 + rng.Intn(3)
			got := r.Demodulate(wave, maxFrames)
			want := r.demodulateRef(wave, maxFrames)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s trial %d (%d samples): memoized %+v, rescan %+v", c.name, trial, len(wave), got, want)
			}
			if got.Synced {
				synced++
			}
			for _, f := range got.Frames {
				if f.OK {
					ok++
				}
			}
		}
		if synced == 0 || ok == 0 {
			t.Fatalf("%s: %d synced waves, %d good frames; the trials never exercise decoding", c.name, synced, ok)
		}
	}
	// Waves shorter than the pattern cannot sync.
	r, _ := NewReceiver(ModemConfig{})
	short := make([]float64, 100)
	if got, want := r.Demodulate(short, 1), r.demodulateRef(short, 1); !reflect.DeepEqual(got, want) || got.Synced {
		t.Fatalf("short wave: %+v vs %+v", got, want)
	}
}

// rxSink keeps the benchmarked call's result live.
var rxSink RxResult

func BenchmarkReceiverDemodulate(b *testing.B) {
	r, err := NewReceiver(ModemConfig{SymbolRate: Ptr(64.0)})
	if err != nil {
		b.Fatal(err)
	}
	wave := synthWave(b, r, rand.New(rand.NewSource(3)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rxSink = r.Demodulate(wave, 1)
	}
}

// patternScoreRef soft-correlates the preamble+sync pattern at a candidate
// offset: per expected symbol, the normalized margin of the expected tone
// over the alternative. Positive means the pattern is present.
func (r *Receiver) patternScoreRef(wave []float64, off int, pattern []byte) float64 {
	var score float64
	for s, bit := range pattern {
		p0, p1 := r.symPower(wave, off+s*r.m.symbolLen)
		// Normalized two-bin margin. For OOK the space symbol is silence,
		// so its expected margin is zero rather than −1 — the score still
		// peaks at the true offset, and the tone0 bin acts as a noise
		// reference that cancels broadband bursts.
		margin := (p1 - p0) / (p0 + p1 + powerEps)
		if bit == 1 {
			score += margin
		} else {
			score -= margin
		}
	}
	return score
}

// demodulateRef is Demodulate as it was before the acquisition memo: every
// candidate offset rescans all pattern symbols with fresh Goertzels, and
// preamble training recomputes its symbol powers.
func (r *Receiver) demodulateRef(wave []float64, maxFrames int) RxResult {
	res := RxResult{}
	L := r.m.symbolLen
	pattern := r.m.preamblePattern()
	patSamples := len(pattern) * L
	frameSamples := r.m.frameBits() * L

	scanEnd := len(wave) - patSamples
	if limit := 2 * frameSamples; scanEnd > limit {
		scanEnd = limit
	}
	step := L / 8
	var offs []int
	var scores []float64
	peak := 0.0
	for off := 0; off <= scanEnd; off += step {
		s := r.patternScoreRef(wave, off, pattern)
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
		p0, p1 := r.symPower(wave, best+s*L)
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

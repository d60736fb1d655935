// Package exfil models the attack in reverse: a covert acoustic channel
// that leaks data *out* of the underwater facility. DiskFiltration and
// Fansmitter (PAPERS.md) showed that the same electromechanics an acoustic
// attacker exploits — the head-stack assembly and its mount — also work as
// a transmitter: software with no network access can schedule disk seeks
// in patterns whose repetition rate sets an acoustic tone. Here that tone
// crosses the mount → enclosure → water path the Deep Note attack crosses
// inward, and a hydrophone outside the facility demodulates it.
//
// The stack has three layers:
//
//   - Modulator (modulator.go): a per-symbol seek-pattern dictionary,
//     validated against the hdd seek model's actuator limits, that maps
//     bits to emitted tones and radiated source levels.
//   - Channel (channel.go): propagation over the cluster layout via
//     sonar.Array.ReceiveLevel, plus the sig ambient corpus and hydrophone
//     self-noise rendered as received pressure.
//   - Modem (frame.go, rs.go, receiver.go): preamble + sync framing with
//     CRC-32 and Reed–Solomon FEC over GF(256) (internal/gf, shared with
//     the cluster erasure coder), demodulated with internal/dsp Goertzel
//     bins — OOK and binary-FSK symbol decisions with per-symbol soft SNR.
//
// Everything is deterministic per seed, so capacity maps and the defense
// leg (detect.Fingerprinter classifying the modulated telemetry) replay
// byte-identically at any worker count.
package exfil

import (
	"errors"
	"fmt"
	"math"

	"deepnote/internal/units"
)

// Ptr returns a pointer to v — shorthand for the optional config fields.
func Ptr[T any](v T) *T { return &v }

// Config errors.
var (
	// ErrConfig reports an out-of-range modem or transmitter parameter.
	ErrConfig = errors.New("exfil: invalid config")
	// ErrPayloadSize reports a payload that does not fit one frame.
	ErrPayloadSize = errors.New("exfil: payload does not fit frame")
	// ErrFrameCorrupt means FEC decoding or the CRC rejected the frame.
	ErrFrameCorrupt = errors.New("exfil: frame corrupt beyond FEC budget")
)

// Scheme selects the modulation.
type Scheme int

const (
	// SchemeFSK keys between Tone0 and Tone1 — the robust default: the
	// receiver compares two bins, so slow gain changes cancel.
	SchemeFSK Scheme = iota
	// SchemeOOK keys Tone1 on and off. Half the average acoustic power of
	// FSK (quieter to the fingerprinter) but needs a power threshold.
	SchemeOOK
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeFSK:
		return "fsk"
	case SchemeOOK:
		return "ook"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// ModemConfig tunes the modem. Pointer fields follow the zero-vs-unset
// convention of the detect and cluster specs: nil = default, explicit
// values are validated and honored (including explicit zero where a zero
// is meaningful).
type ModemConfig struct {
	// Scheme selects OOK or binary FSK (value type: the zero value is the
	// FSK default, and there is no meaningful "unset" distinct from it).
	Scheme Scheme
	// SampleRate is the receiver sample rate in Hz. Nil = 4096 (matching
	// the detect fingerprinter); must be finite and > 0.
	SampleRate *float64
	// SymbolRate is the signaling rate in baud. Nil = 32; must be finite,
	// > 0, and divide SampleRate into an integer symbol window of ≥ 8
	// samples.
	SymbolRate *float64
	// Tone0 and Tone1 carry bit 0 and bit 1. Nil = 780 Hz and 1140 Hz —
	// reachable seek-rate harmonics that sit inside the servo-vulnerable
	// band, near the HSA resonances, and off the facility pump's 120 Hz
	// comb. Both must be in (0, Nyquist); they must differ by at least one
	// symbol-rate bin so the Goertzel decisions separate.
	Tone0, Tone1 *units.Frequency
	// PreambleBits is the alternating 1010… sync preamble length. Nil =
	// 32; must be ≥ 8 and even.
	PreambleBits *int
	// DataBytes is the RS codeword's data block size (length prefix +
	// payload + CRC-32). Nil = 64; must be ≥ 7.
	DataBytes *int
	// ParityBytes is the RS parity count: the codec corrects up to
	// ParityBytes/2 byte errors per frame. Nil = 16; must be ≥ 2, even,
	// and DataBytes+ParityBytes ≤ 255 (the GF(256) codeword bound).
	ParityBytes *int
}

// modem is the resolved configuration.
type modem struct {
	scheme       Scheme
	sampleRate   float64
	symbolRate   float64
	symbolLen    int // samples per symbol
	tone0, tone1 units.Frequency
	preambleBits int
	dataBytes    int
	parityBytes  int
}

// finitePositive reports whether x is a finite number above zero; NaN and
// ±Inf fail.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

func (c ModemConfig) resolve() (modem, error) {
	m := modem{
		scheme:       c.Scheme,
		sampleRate:   4096,
		symbolRate:   32,
		tone0:        780 * units.Hz,
		tone1:        1140 * units.Hz,
		preambleBits: 32,
		dataBytes:    64,
		parityBytes:  16,
	}
	if c.Scheme != SchemeFSK && c.Scheme != SchemeOOK {
		return m, fmt.Errorf("%w: unknown scheme %d", ErrConfig, int(c.Scheme))
	}
	if c.SampleRate != nil {
		if !finitePositive(*c.SampleRate) {
			return m, fmt.Errorf("%w: SampleRate %g must be finite and > 0", ErrConfig, *c.SampleRate)
		}
		m.sampleRate = *c.SampleRate
	}
	if c.SymbolRate != nil {
		if !finitePositive(*c.SymbolRate) {
			return m, fmt.Errorf("%w: SymbolRate %g must be finite and > 0", ErrConfig, *c.SymbolRate)
		}
		m.symbolRate = *c.SymbolRate
	}
	win := m.sampleRate / m.symbolRate
	m.symbolLen = int(win)
	if float64(m.symbolLen) != win || m.symbolLen < 8 {
		return m, fmt.Errorf("%w: SymbolRate %g must divide SampleRate %g into an integer window of ≥ 8 samples (got %g)",
			ErrConfig, m.symbolRate, m.sampleRate, win)
	}
	if c.Tone0 != nil {
		m.tone0 = *c.Tone0
	}
	if c.Tone1 != nil {
		m.tone1 = *c.Tone1
	}
	nyq := units.Frequency(m.sampleRate / 2)
	if !(m.tone0 > 0 && m.tone0 < nyq) {
		return m, fmt.Errorf("%w: Tone0 %v outside (0, Nyquist %v)", ErrConfig, m.tone0, nyq)
	}
	if !(m.tone1 > 0 && m.tone1 < nyq) {
		return m, fmt.Errorf("%w: Tone1 %v outside (0, Nyquist %v)", ErrConfig, m.tone1, nyq)
	}
	if sep := (m.tone1 - m.tone0).Hertz(); sep < m.symbolRate && -sep < m.symbolRate {
		return m, fmt.Errorf("%w: tones %v and %v closer than one symbol-rate bin (%g Hz)",
			ErrConfig, m.tone0, m.tone1, m.symbolRate)
	}
	if c.PreambleBits != nil {
		if *c.PreambleBits < 8 || *c.PreambleBits%2 != 0 {
			return m, fmt.Errorf("%w: PreambleBits %d must be even and ≥ 8", ErrConfig, *c.PreambleBits)
		}
		m.preambleBits = *c.PreambleBits
	}
	if c.DataBytes != nil {
		if *c.DataBytes < 7 {
			return m, fmt.Errorf("%w: DataBytes %d must be ≥ 7 (length prefix + 1 payload byte + CRC-32)", ErrConfig, *c.DataBytes)
		}
		m.dataBytes = *c.DataBytes
	}
	if c.ParityBytes != nil {
		if *c.ParityBytes < 2 || *c.ParityBytes%2 != 0 {
			return m, fmt.Errorf("%w: ParityBytes %d must be even and ≥ 2", ErrConfig, *c.ParityBytes)
		}
		m.parityBytes = *c.ParityBytes
	}
	if n := m.dataBytes + m.parityBytes; n > 255 {
		return m, fmt.Errorf("%w: codeword %d bytes exceeds the GF(256) bound of 255", ErrConfig, n)
	}
	return m, nil
}

// MaxPayload returns the largest payload one frame carries: DataBytes
// minus the 2-byte length prefix and 4-byte CRC-32.
func (m modem) MaxPayload() int { return m.dataBytes - 6 }

// frameBits returns the total symbol count of one frame on the wire.
func (m modem) frameBits() int {
	return m.preambleBits + syncBits + 8*(m.dataBytes+m.parityBytes)
}

// FrameAirtime returns one frame's transmission time in seconds.
func (m modem) FrameAirtime() float64 { return float64(m.frameBits()) / m.symbolRate }

// Modem is the validated public handle on a resolved modem configuration
// — the experiment layer's view of frame geometry and encoding.
type Modem struct {
	m modem
}

// MaxPayload returns the largest payload one frame carries.
func (md *Modem) MaxPayload() int { return md.m.MaxPayload() }

// FrameAirtime returns one frame's transmission time in seconds.
func (md *Modem) FrameAirtime() float64 { return md.m.FrameAirtime() }

// SampleRate returns the receiver sample rate in Hz.
func (md *Modem) SampleRate() float64 { return md.m.sampleRate }

// EncodeFrame builds one frame's symbol stream (one bit per byte).
func (md *Modem) EncodeFrame(payload []byte) ([]byte, error) {
	return md.m.encodeFrame(payload)
}

package exfil

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"deepnote/internal/cluster"
	"deepnote/internal/sig"
	"deepnote/internal/sonar"
	"deepnote/internal/units"
)

// Satellite: the zero-vs-unset pointer-field convention on every new
// config struct — nil defaults, explicit out-of-range values rejected.
func TestModemConfigRejection(t *testing.T) {
	cases := []struct {
		name string
		cfg  ModemConfig
	}{
		{"negative sample rate", ModemConfig{SampleRate: Ptr(-1.0)}},
		{"zero sample rate", ModemConfig{SampleRate: Ptr(0.0)}},
		{"zero symbol rate", ModemConfig{SymbolRate: Ptr(0.0)}},
		{"non-divisor symbol rate", ModemConfig{SymbolRate: Ptr(31.0)}},
		{"window too short", ModemConfig{SymbolRate: Ptr(1024.0)}},
		{"tone0 above nyquist", ModemConfig{Tone0: Ptr(3000 * units.Hz)}},
		{"tone1 zero", ModemConfig{Tone1: Ptr(0 * units.Hz)}},
		{"tones too close", ModemConfig{Tone0: Ptr(780 * units.Hz), Tone1: Ptr(790 * units.Hz), SymbolRate: Ptr(32.0)}},
		{"odd preamble", ModemConfig{PreambleBits: Ptr(9)}},
		{"short preamble", ModemConfig{PreambleBits: Ptr(6)}},
		{"data too small", ModemConfig{DataBytes: Ptr(6)}},
		{"odd parity", ModemConfig{ParityBytes: Ptr(15)}},
		{"parity too small", ModemConfig{ParityBytes: Ptr(0)}},
		{"codeword too long", ModemConfig{DataBytes: Ptr(250), ParityBytes: Ptr(16)}},
		{"unknown scheme", ModemConfig{Scheme: Scheme(7)}},
		{"tone0 NaN", ModemConfig{Tone0: Ptr(units.Frequency(math.NaN()))}},
		{"tone1 NaN", ModemConfig{Tone1: Ptr(units.Frequency(math.NaN()))}},
	}
	for _, tc := range cases {
		if _, err := tc.cfg.resolve(); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: got %v, want ErrConfig", tc.name, err)
		}
	}
	// Nil everything resolves to the documented defaults.
	m, err := ModemConfig{}.resolve()
	if err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	if m.sampleRate != 4096 || m.symbolRate != 32 || m.symbolLen != 128 ||
		m.tone0 != 780*units.Hz || m.tone1 != 1140*units.Hz ||
		m.preambleBits != 32 || m.dataBytes != 64 || m.parityBytes != 16 {
		t.Errorf("unexpected defaults: %+v", m)
	}
}

func TestTxConfigRejection(t *testing.T) {
	cases := []struct {
		name string
		cfg  TxConfig
	}{
		{"zero stroke", TxConfig{StrokeBytes: Ptr(int64(0))}},
		{"negative stroke", TxConfig{StrokeBytes: Ptr(int64(-5))}},
		{"zero harmonic0", TxConfig{Harmonic0: Ptr(0)}},
		{"zero harmonic1", TxConfig{Harmonic1: Ptr(0)}},
		{"zero seek frac", TxConfig{BaseSeekFrac: Ptr(0.0)}},
		{"negative source SPL", TxConfig{BaseSourceSPL: Ptr(-3.0)}},
	}
	for _, tc := range cases {
		if _, err := tc.cfg.resolve(); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: got %v, want ErrConfig", tc.name, err)
		}
	}
}

func TestModulatorRejectsUnreachableTone(t *testing.T) {
	// Harmonic 1 would need a 780 Hz seek rate — nearly double the
	// actuator's ~416 Hz track-to-track limit.
	_, err := NewModulator(ModemConfig{}, TxConfig{Harmonic0: Ptr(1)})
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("unreachable seek rate accepted: %v", err)
	}
}

func TestModulatorDictionary(t *testing.T) {
	mod, err := NewModulator(ModemConfig{}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := mod.pattern
	if p[0].Tone != 780*units.Hz || p[0].Harmonic != 2 || math.Abs(p[0].SeekRate-390) > 1e-9 {
		t.Errorf("bit-0 pattern %+v", p[0])
	}
	if p[1].Tone != 1140*units.Hz || p[1].Harmonic != 3 || math.Abs(p[1].SeekRate-380) > 1e-9 {
		t.Errorf("bit-1 pattern %+v", p[1])
	}
	if f := mod.TxFrac(1); f <= 0 {
		t.Errorf("FSK bit-1 tray excitation %g must be positive", f)
	}
	ook, err := NewModulator(ModemConfig{Scheme: SchemeOOK}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if f := ook.TxFrac(0); f != 0 {
		t.Errorf("OOK bit-0 tray excitation %g, want 0 (silence)", f)
	}
	if _, on := ook.SourceSPL(0); on {
		t.Error("OOK bit 0 radiates")
	}
}

// testLink builds a single-container facility with a hydrophone at the
// given range.
func testLink(dist units.Distance, amb sig.Ambient, seed int64) (Link, cluster.Vec3) {
	lay := cluster.LineLayout(1, 10)
	tx := lay.Containers[0].Pos
	arr := sonar.Array{
		Medium:       lay.EffectiveMedium(),
		SurfaceDepth: lay.SurfaceDepth,
		Hydrophones: []sonar.Hydrophone{
			{Name: "h0", Pos: cluster.Vec3{X: tx.X + float64(dist), Y: tx.Y, Z: tx.Z}},
		},
	}
	return Link{Array: arr, TxPos: tx, Ambient: amb, Seed: seed}, tx
}

func roundTrip(t *testing.T, scheme Scheme, dist units.Distance, amb sig.Ambient, payloads [][]byte) RxResult {
	t.Helper()
	cfg := ModemConfig{Scheme: scheme}
	mod, err := NewModulator(cfg, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var bits []byte
	for _, p := range payloads {
		fb, err := mod.m.encodeFrame(p)
		if err != nil {
			t.Fatal(err)
		}
		bits = append(bits, fb...)
	}
	link, _ := testLink(dist, amb, 42)
	wave, _ := link.Render(mod, bits)
	rx, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rx.Demodulate(wave, len(payloads))
}

func TestEndToEndShortRange(t *testing.T) {
	payloads := [][]byte{
		[]byte("deep note: the attack in reverse"),
		bytes.Repeat([]byte{0x5A}, 58),
	}
	ambients := map[Scheme][]sig.AmbientKind{
		// FSK's per-symbol two-tone comparison rides out rain's heavy
		// steady broadband; OOK cannot (no contemporaneous mark reference),
		// so its three backgrounds swap rain for the ship-traffic comb.
		// The capacity tables in internal/experiment map this difference.
		SchemeFSK: {sig.AmbientPump, sig.AmbientCreak, sig.AmbientRain},
		SchemeOOK: {sig.AmbientPump, sig.AmbientCreak, sig.AmbientShipTraffic},
	}
	for _, scheme := range []Scheme{SchemeFSK, SchemeOOK} {
		for _, amb := range ambients[scheme] {
			res := roundTrip(t, scheme, 5*units.Meter, sig.NewAmbient(amb, 3), payloads)
			if !res.Synced {
				t.Fatalf("%v over %v: no sync", scheme, amb)
			}
			if len(res.Frames) != len(payloads) {
				t.Fatalf("%v over %v: %d frames decoded, want %d", scheme, amb, len(res.Frames), len(payloads))
			}
			for i, fr := range res.Frames {
				if !fr.OK {
					t.Fatalf("%v over %v: frame %d failed: %v (SNR %.1f dB)", scheme, amb, i, fr.Err, fr.MeanSNRdB)
				}
				if !bytes.Equal(fr.Payload, payloads[i]) {
					t.Fatalf("%v over %v: frame %d payload mismatch", scheme, amb, i)
				}
			}
		}
	}
}

func TestEndToEndCapacityCollapsesWithRange(t *testing.T) {
	// The same frames that survive at 5 m must die far out: the channel
	// has a range wall, which is the capacity-map story.
	payloads := [][]byte{[]byte("short-range only")}
	res := roundTrip(t, SchemeFSK, 300*units.Meter, sig.NewAmbient(sig.AmbientShipTraffic, 3), payloads)
	for _, fr := range res.Frames {
		if fr.OK {
			t.Fatal("frame decoded at 300 m — the link budget is implausibly generous")
		}
	}
}

func TestLinkRenderDeterministic(t *testing.T) {
	cfg := ModemConfig{}
	mod, err := NewModulator(cfg, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	bits, err := mod.m.encodeFrame([]byte("determinism"))
	if err != nil {
		t.Fatal(err)
	}
	link, _ := testLink(20*units.Meter, sig.NewAmbient(sig.AmbientShrimp, 9), 7)
	w1, b1 := link.Render(mod, bits)
	w2, b2 := link.Render(mod, bits)
	if b1 != b2 {
		t.Fatalf("budgets differ: %+v vs %+v", b1, b2)
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestLinkBudgetAsymmetry(t *testing.T) {
	// Tone1 rides harmonic 3 against tone0's harmonic 2 and a weaker HSA
	// mode: the received mark carrier must be the quieter one, which is
	// exactly what the preamble-trained normalization compensates.
	mod, err := NewModulator(ModemConfig{}, TxConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := mod.SourceSPL(0)
	s1, _ := mod.SourceSPL(1)
	if s1.DB >= s0.DB {
		t.Errorf("tone1 source %v not quieter than tone0 %v", s1, s0)
	}
}

// The exfiltration experiment maps the covert channel from both sides.
// Offense: frame streams cross the facility water at each (distance,
// depth, ambient) cell and the demodulator's frame-error rate turns into
// net goodput — the capacity map. A scheme × symbol-rate sweep shows
// where faster signaling collapses. Defense: the same modulated seek
// waveforms run under the PR 9 fingerprinting pipeline, reporting
// detection latency and — the number a defender actually budgets against
// — payload bytes leaked before the alarm.
package experiment

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"

	"deepnote/internal/campaign"
	"deepnote/internal/cluster"
	"deepnote/internal/exfil"
	"deepnote/internal/metrics"
	"deepnote/internal/parallel"
	"deepnote/internal/report"
	"deepnote/internal/sig"
	"deepnote/internal/sonar"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// ExfilSpec configures the experiment. Start from DefaultExfilSpec: every
// field is used as given.
type ExfilSpec struct {
	// Distances are the transmitter → hydrophone ranges of the capacity
	// map.
	Distances []units.Distance
	// Depths are the facility SurfaceDepth values swept (0 is deep
	// water, no surface bounce).
	Depths []units.Distance
	// SymbolRates is the signaling-rate sweep in baud, run for both
	// schemes at the nearest distance.
	SymbolRates []float64
	// Frames is how many frames each offense cell transmits (≥ 1).
	Frames int
	// DetectFrames is how many frames each defense cell transmits (≥ 1).
	DetectFrames int
	Seed         int64
	// Workers bounds the cell fan-out (≤ 0 = one per CPU); results are
	// byte-identical at any worker count.
	Workers int
	// Metrics receives experiment counters when non-nil.
	Metrics *metrics.Registry
}

// DefaultExfilSpec is the experiment `deepnote exfil` runs with no flags:
// a 5/20/80 m capacity map in deep water and at a 6 m surface depth
// (where the Lloyd's-mirror interference reshapes the link), a 16/32/64
// baud rate sweep, 3 frames per offense cell and 8 per defense cell —
// long enough for the slow-detection schemes to show their leak.
func DefaultExfilSpec() ExfilSpec {
	return ExfilSpec{
		Distances:    []units.Distance{5 * units.Meter, 20 * units.Meter, 80 * units.Meter},
		Depths:       []units.Distance{0, 6 * units.Meter},
		SymbolRates:  []float64{16, 32, 64},
		Frames:       3,
		DetectFrames: 8,
		Seed:         1,
	}
}

// validate rejects a frame count below 1, a range that is not positive
// and a depth above the surface (negative).
func (s ExfilSpec) validate() error {
	errs := []error{
		valid.AtLeast("Frames", s.Frames, 1),
		valid.AtLeast("DetectFrames", s.DetectFrames, 1),
	}
	for i, d := range s.Distances {
		errs = append(errs, valid.Positive(fmt.Sprintf("Distances[%d]", i), d))
	}
	for i, d := range s.Depths {
		errs = append(errs, valid.AtLeast(fmt.Sprintf("Depths[%d]", i), d, 0))
	}
	return valid.First("experiment.ExfilSpec", errs...)
}

// ExfilCell identifies one experiment cell.
type ExfilCell struct {
	// Kind is "capacity", "rate", or "detect".
	Kind    string
	Scheme  exfil.Scheme
	Ambient sig.AmbientKind
	// Distance and Depth place the hydrophone (offense cells).
	Distance units.Distance
	Depth    units.Distance
	// SymbolRate is the signaling rate in baud.
	SymbolRate float64
}

// ExfilRow is one cell's outcome.
type ExfilRow struct {
	Cell ExfilCell
	// Offense-cell outcomes.
	Synced bool
	// FramesSent / FramesOK count transmitted and bit-exactly recovered
	// frames; FER is their failure ratio.
	FramesSent, FramesOK int
	FER                  float64
	// MeanSNRdB averages the demodulator's per-symbol soft SNR over
	// decoded frames.
	MeanSNRdB float64
	// RawBps is the wire symbol rate; GoodputBps the net payload rate
	// after framing, FEC, and frame errors.
	RawBps, GoodputBps float64
	// Defense-cell outcomes.
	Detect campaign.ExfilDetectResult
}

// ExfilResult is the experiment outcome.
type ExfilResult struct {
	// Capacity is the (distance, depth, ambient) map; Rates the scheme ×
	// symbol-rate sweep; Detect the defense table.
	Capacity, Rates, Detect []ExfilRow
	// BestGoodputBps is the highest net goodput across offense cells —
	// the bench headline.
	BestGoodputBps float64
	// RecoveredDistances / RecoveredAmbients count capacity-map distances
	// and ambients with at least one bit-exact cell — the acceptance
	// floor (≥2 distances, ≥3 ambients).
	RecoveredDistances, RecoveredAmbients int
}

func (s ExfilSpec) cells() []ExfilCell {
	var cells []ExfilCell
	for _, depth := range s.Depths {
		for _, d := range s.Distances {
			for _, kind := range sig.AmbientKinds() {
				cells = append(cells, ExfilCell{
					Kind: "capacity", Scheme: exfil.SchemeFSK, Ambient: kind,
					Distance: d, Depth: depth, SymbolRate: 32,
				})
			}
		}
	}
	for _, scheme := range []exfil.Scheme{exfil.SchemeFSK, exfil.SchemeOOK} {
		for _, rate := range s.SymbolRates {
			cells = append(cells, ExfilCell{
				Kind: "rate", Scheme: scheme, Ambient: sig.AmbientPump,
				Distance: s.Distances[0], SymbolRate: rate,
			})
		}
	}
	for _, scheme := range []exfil.Scheme{exfil.SchemeFSK, exfil.SchemeOOK} {
		for _, kind := range sig.AmbientKinds() {
			cells = append(cells, ExfilCell{
				Kind: "detect", Scheme: scheme, Ambient: kind, SymbolRate: 32,
			})
		}
	}
	return cells
}

// exfilLink builds the cell's facility: one container at the cell depth
// with a hydrophone at the cell distance, hearing through the same water
// the attack experiments use.
func exfilLink(c ExfilCell, amb sig.Ambient, seed int64) exfil.Link {
	lay := cluster.LineLayout(1, 10*units.Meter)
	lay.SurfaceDepth = c.Depth
	tx := lay.Containers[0].Pos
	arr := sonar.Array{
		Medium:       lay.EffectiveMedium(),
		SurfaceDepth: lay.SurfaceDepth,
		Hydrophones: []sonar.Hydrophone{
			{Name: "exfil-rx", Pos: cluster.Vec3{X: tx.X + float64(c.Distance), Y: tx.Y, Z: tx.Z}},
		},
	}
	return exfil.Link{Array: arr, TxPos: tx, Ambient: amb, Seed: seed}
}

// runOffenseCell transmits Frames frames across the cell's link and
// scores recovery.
func (s ExfilSpec) runOffenseCell(c ExfilCell, seed int64) (ExfilRow, error) {
	cfg := exfil.ModemConfig{Scheme: c.Scheme, SymbolRate: exfil.Ptr(c.SymbolRate)}
	mod, err := exfil.NewModulator(cfg, exfil.TxConfig{})
	if err != nil {
		return ExfilRow{}, err
	}
	md := mod.Modem()
	rx, err := exfil.NewReceiver(cfg)
	if err != nil {
		return ExfilRow{}, err
	}
	payloadRng := rand.New(rand.NewSource(parallel.SeedFor(seed, 1)))
	payloads := make([][]byte, s.Frames)
	var bits []byte
	for f := range payloads {
		payloads[f] = make([]byte, md.MaxPayload())
		payloadRng.Read(payloads[f])
		fb, err := md.EncodeFrame(payloads[f])
		if err != nil {
			return ExfilRow{}, err
		}
		bits = append(bits, fb...)
	}
	amb := sig.NewAmbient(c.Ambient, parallel.SeedFor(seed, 3))
	wave, _ := exfilLink(c, amb, parallel.SeedFor(seed, 2)).Render(mod, bits)
	res := rx.Demodulate(wave, s.Frames)

	row := ExfilRow{
		Cell:       c,
		Synced:     res.Synced,
		FramesSent: s.Frames,
		RawBps:     c.SymbolRate,
	}
	var snrSum float64
	for i, fr := range res.Frames {
		snrSum += fr.MeanSNRdB
		if fr.OK && i < len(payloads) && bytes.Equal(fr.Payload, payloads[i]) {
			row.FramesOK++
		}
	}
	if len(res.Frames) > 0 {
		row.MeanSNRdB = snrSum / float64(len(res.Frames))
	}
	row.FER = 1 - float64(row.FramesOK)/float64(row.FramesSent)
	row.GoodputBps = (1 - row.FER) * 8 * float64(md.MaxPayload()) / md.FrameAirtime()
	return row, nil
}

// runDetectCell runs the defense campaign for the cell.
func (s ExfilSpec) runDetectCell(c ExfilCell, seed int64) (ExfilRow, error) {
	cs := campaign.ExfilDetectSpec{
		Modem:   exfil.ModemConfig{Scheme: c.Scheme, SymbolRate: exfil.Ptr(c.SymbolRate)},
		Ambient: sig.NewAmbient(c.Ambient, 3),
		Frames:  s.DetectFrames,
		Seed:    seed,
		Metrics: s.Metrics,
	}
	res, err := cs.Run()
	if err != nil {
		return ExfilRow{}, err
	}
	return ExfilRow{Cell: c, Detect: res}, nil
}

// ExfilRun executes the experiment. Every cell derives its seed with
// parallel.SeedFor, so the result is byte-identical at any Workers value.
func ExfilRun(spec ExfilSpec) (ExfilResult, error) {
	if err := spec.validate(); err != nil {
		return ExfilResult{}, err
	}
	cells := spec.cells()
	rows, err := parallel.RunObserved(context.Background(), cells, spec.Workers, spec.Metrics,
		func(_ context.Context, i int, c ExfilCell) (ExfilRow, error) {
			seed := parallel.SeedFor(spec.Seed, i)
			if c.Kind == "detect" {
				return spec.runDetectCell(c, seed)
			}
			return spec.runOffenseCell(c, seed)
		})
	if err != nil {
		return ExfilResult{}, err
	}

	out := ExfilResult{}
	distOK := map[units.Distance]bool{}
	ambOK := map[sig.AmbientKind]bool{}
	for _, r := range rows {
		switch r.Cell.Kind {
		case "capacity":
			out.Capacity = append(out.Capacity, r)
			if r.FER == 0 {
				distOK[r.Cell.Distance] = true
				ambOK[r.Cell.Ambient] = true
			}
		case "rate":
			out.Rates = append(out.Rates, r)
		case "detect":
			out.Detect = append(out.Detect, r)
		}
		if r.Cell.Kind != "detect" && r.GoodputBps > out.BestGoodputBps {
			out.BestGoodputBps = r.GoodputBps
		}
	}
	out.RecoveredDistances = len(distOK)
	out.RecoveredAmbients = len(ambOK)

	spec.Metrics.Add("experiment.exfil_runs", 1)
	spec.Metrics.Add("experiment.exfil_cells", int64(len(cells)))
	spec.Metrics.MaxGauge("experiment.exfil_goodput_bits_per_sec", out.BestGoodputBps)
	return out, nil
}

// ExfilCapacityReport renders the capacity map.
func ExfilCapacityReport(res ExfilResult) *report.Table {
	tb := report.NewTable(
		"Covert-channel capacity map (FSK @ 32 baud): net goodput vs distance, depth, ambient",
		"Depth m", "Distance m", "Ambient", "Synced", "Frames OK", "FER", "Sym SNR dB", "Goodput b/s")
	for _, r := range res.Capacity {
		tb.AddRow(
			fmt.Sprintf("%.0f", r.Cell.Depth.Meters()),
			fmt.Sprintf("%.0f", r.Cell.Distance.Meters()),
			r.Cell.Ambient.String(),
			fmt.Sprintf("%v", r.Synced),
			fmt.Sprintf("%d/%d", r.FramesOK, r.FramesSent),
			fmt.Sprintf("%.2f", r.FER),
			fmt.Sprintf("%.1f", r.MeanSNRdB),
			fmt.Sprintf("%.2f", r.GoodputBps))
	}
	return tb
}

// ExfilRateReport renders the scheme × symbol-rate sweep.
func ExfilRateReport(res ExfilResult) *report.Table {
	tb := report.NewTable(
		fmt.Sprintf("Signaling-rate sweep at %s over %s",
			firstDistance(res), sig.AmbientPump),
		"Scheme", "Baud", "Raw b/s", "Frames OK", "FER", "Sym SNR dB", "Goodput b/s")
	for _, r := range res.Rates {
		tb.AddRow(
			r.Cell.Scheme.String(),
			fmt.Sprintf("%.0f", r.Cell.SymbolRate),
			fmt.Sprintf("%.0f", r.RawBps),
			fmt.Sprintf("%d/%d", r.FramesOK, r.FramesSent),
			fmt.Sprintf("%.2f", r.FER),
			fmt.Sprintf("%.1f", r.MeanSNRdB),
			fmt.Sprintf("%.2f", r.GoodputBps))
	}
	return tb
}

func firstDistance(res ExfilResult) string {
	if len(res.Rates) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f m", res.Rates[0].Cell.Distance.Meters())
}

// ExfilDetectReport renders the defense leg: detection latency against
// bytes leaked before the alarm.
func ExfilDetectReport(res ExfilResult) *report.Table {
	tb := report.NewTable(
		"Fingerprinting the active channel: detection latency vs bytes leaked",
		"Scheme", "Ambient", "Detected", "Latency s", "Goodput b/s", "Sent B", "Leaked B", "Lead-in FPs")
	for _, r := range res.Detect {
		det, lat := "no", "-"
		if r.Detect.Detected {
			det = "yes"
			lat = fmt.Sprintf("%.1f", r.Detect.DetectLatency.Seconds())
		}
		tb.AddRow(
			r.Cell.Scheme.String(),
			r.Cell.Ambient.String(),
			det, lat,
			fmt.Sprintf("%.2f", r.Detect.GoodputBps),
			fmt.Sprintf("%d", r.Detect.BytesSent),
			fmt.Sprintf("%d", r.Detect.BytesLeaked),
			fmt.Sprintf("%d", r.Detect.FalsePositives))
	}
	return tb
}

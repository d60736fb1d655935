package sig

import (
	"fmt"
	"math"
	"sort"

	"deepnote/internal/units"
)

// SweepPlan describes a stepped frequency sweep: the procedure the paper's
// §4.1 uses to locate vulnerable frequencies. A coarse pass covers
// [Start, End] in CoarseStep increments; RefinePlan can then generate a
// fine pass in FineStep increments around frequencies found interesting.
type SweepPlan struct {
	// Start and End bound the sweep (inclusive).
	Start, End units.Frequency
	// CoarseStep is the coarse pass increment.
	CoarseStep units.Frequency
	// FineStep is the refinement increment used around vulnerable
	// frequencies (the paper narrows to 50 Hz).
	FineStep units.Frequency
	// DwellSec is how long the attacker holds each frequency while
	// observing the victim's throughput.
	DwellSec float64
}

// PaperSweep is the sweep the paper performs: 100 Hz to 16.9 kHz,
// narrowing to 50 Hz increments between vulnerable frequencies.
func PaperSweep() SweepPlan {
	return SweepPlan{
		Start:      100 * units.Hz,
		End:        16900 * units.Hz,
		CoarseStep: 200 * units.Hz,
		FineStep:   50 * units.Hz,
		DwellSec:   5,
	}
}

// Validate reports whether the plan is self-consistent.
func (p SweepPlan) Validate() error {
	if p.Start <= 0 || p.End <= 0 {
		return fmt.Errorf("sig: sweep bounds must be positive, got [%v, %v]", p.Start, p.End)
	}
	if p.End < p.Start {
		return fmt.Errorf("sig: sweep end %v before start %v", p.End, p.Start)
	}
	if p.CoarseStep <= 0 {
		return fmt.Errorf("sig: coarse step must be positive, got %v", p.CoarseStep)
	}
	if p.FineStep <= 0 || p.FineStep > p.CoarseStep {
		return fmt.Errorf("sig: fine step %v must be in (0, coarse step %v]", p.FineStep, p.CoarseStep)
	}
	if p.DwellSec <= 0 {
		return fmt.Errorf("sig: dwell must be positive, got %v", p.DwellSec)
	}
	return nil
}

// CoarseFrequencies returns the coarse pass frequencies, Start..End
// inclusive of End even when the last step overshoots.
func (p SweepPlan) CoarseFrequencies() []units.Frequency {
	return stepRange(p.Start, p.End, p.CoarseStep)
}

// RefineAround returns the fine-pass frequencies covering
// [center−CoarseStep, center+CoarseStep] clipped to the sweep bounds,
// in FineStep increments. This mirrors the paper's "narrowing to 50 Hz
// increments between vulnerable frequencies".
func (p SweepPlan) RefineAround(center units.Frequency) []units.Frequency {
	lo := center - p.CoarseStep
	hi := center + p.CoarseStep
	if lo < p.Start {
		lo = p.Start
	}
	if hi > p.End {
		hi = p.End
	}
	return stepRange(lo, hi, p.FineStep)
}

// RefineAroundAll is a sweep's refinement step: it merges fine passes
// around several centers, skipping the frequencies already measured,
// deduplicated and sorted ascending. Deduplication keys on FrequencyKey
// rather than exact float equality: fine passes around adjacent centers
// cover overlapping ranges whose grid points are computed from different
// origins, so the "same" nominal frequency can differ by a ULP between
// passes, or from the coarse pass.
func (p SweepPlan) RefineAroundAll(centers, measured []units.Frequency) []units.Frequency {
	seen := make(map[int64]bool, len(measured))
	for _, f := range measured {
		seen[FrequencyKey(f)] = true
	}
	var out []units.Frequency
	for _, c := range centers {
		for _, f := range p.RefineAround(c) {
			if k := FrequencyKey(f); !seen[k] {
				seen[k] = true
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// FrequencyKey quantizes a frequency to a 1 mHz grid for use as a
// deduplication key. Two frequencies that differ only by floating-point
// rounding (well below any physically meaningful resolution) map to the
// same key; genuinely distinct sweep points (≥ 1 Hz apart in practice)
// never collide.
func FrequencyKey(f units.Frequency) int64 {
	return int64(math.Round(float64(f) * 1000))
}

func stepRange(lo, hi, step units.Frequency) []units.Frequency {
	if step <= 0 || hi < lo {
		return nil
	}
	// Generate by index (lo + i*step) rather than accumulating f += step:
	// repeated addition compounds float64 rounding error across hundreds
	// of points, drifting the grid and — near the inclusive-end guard —
	// emitting a near-duplicate terminal point.
	var out []units.Frequency
	for i := 0; ; i++ {
		f := lo + units.Frequency(i)*step
		if f > hi+step/1e6 {
			break
		}
		out = append(out, f)
	}
	if len(out) == 0 || out[len(out)-1] < hi-step/1e6 {
		out = append(out, hi)
	}
	return out
}

// Band is a contiguous frequency interval, used to report vulnerable bands.
type Band struct {
	Low, High units.Frequency
}

// Width returns the band width.
func (b Band) Width() units.Frequency { return b.High - b.Low }

// String renders the band.
func (b Band) String() string { return fmt.Sprintf("[%v, %v]", b.Low, b.High) }

// CoalesceBands merges a set of frequencies, in any order, into contiguous
// bands: after sorting a copy, consecutive frequencies closer than maxGap
// belong to the same band. It is how sweep results become "vulnerable from
// 300 Hz to 1.3 kHz" style statements. The input slice is not modified.
func CoalesceBands(freqs []units.Frequency, maxGap units.Frequency) []Band {
	if len(freqs) == 0 {
		return nil
	}
	sorted := make([]units.Frequency, len(freqs))
	copy(sorted, freqs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	var bands []Band
	cur := Band{Low: sorted[0], High: sorted[0]}
	for _, f := range sorted[1:] {
		if f-cur.High <= maxGap {
			cur.High = f
			continue
		}
		bands = append(bands, cur)
		cur = Band{Low: f, High: f}
	}
	return append(bands, cur)
}

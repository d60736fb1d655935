package attack

import (
	"math/rand"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/sig"
	"deepnote/internal/units"
	"deepnote/internal/valid"
)

// Adaptive is a closed-loop attacker: instead of sweeping the whole band
// (the paper's §4.1 procedure needs ~100+ dwell periods), it hill-climbs
// on observed damage with random restarts, converging on an effective
// tone in a fraction of the probes. This matters operationally — a short
// reconnaissance is harder to notice and works against enclosures whose
// resonances differ from any studied reference.
type Adaptive struct {
	Scenario core.Scenario
	Distance units.Distance
	// Budget caps the number of probes, baseline excluded; Run rejects
	// a budget below 1.
	Budget int
	Seed   int64
}

// The adaptive search's fixed band and per-probe observation window.
const (
	adaptiveLow     = 100 * units.Hz
	adaptiveHigh    = 8000 * units.Hz
	adaptiveRuntime = 300 * time.Millisecond
)

func (a Adaptive) withDefaults() Adaptive {
	if a.Scenario == 0 {
		a.Scenario = core.Scenario2
	}
	if a.Distance == 0 {
		a.Distance = 1 * units.Centimeter
	}
	if a.Seed == 0 {
		a.Seed = 1
	}
	return a
}

// AdaptiveProbe is one observation.
type AdaptiveProbe struct {
	Freq        units.Frequency
	Degradation float64
}

// AdaptiveResult is the search outcome.
type AdaptiveResult struct {
	// Best is the most damaging tone found.
	Best AdaptiveProbe
	// Probes is the full search trace, in order.
	Probes []AdaptiveProbe
	// Baseline is the healthy throughput used for scoring.
	Baseline float64
}

// Run performs the search: random exploration seeded across the band,
// then halving-step hill climbs around the best point.
func (a Adaptive) Run() (AdaptiveResult, error) {
	if err := valid.First("attack.Adaptive", valid.AtLeast("Budget", a.Budget, 1)); err != nil {
		return AdaptiveResult{}, err
	}
	a = a.withDefaults()
	rng := rand.New(rand.NewSource(a.Seed))

	measure := func(tone sig.Tone) (float64, error) {
		rig, err := core.NewRig(a.Scenario, a.Distance, a.Seed)
		if err != nil {
			return 0, err
		}
		if tone.Amplitude > 0 {
			rig.ApplyTone(tone)
		}
		res, err := fio.NewRunner(rig.Disk, rig.Clock).Run(fio.PaperJob(fio.SeqWrite, adaptiveRuntime))
		if err != nil {
			return 0, err
		}
		return res.ThroughputMBps(), nil
	}

	baseline, err := measure(sig.Tone{})
	if err != nil {
		return AdaptiveResult{}, err
	}
	res := AdaptiveResult{Baseline: baseline}

	probe := func(f units.Frequency) (AdaptiveProbe, error) {
		mbps, err := measure(sig.NewTone(f))
		if err != nil {
			return AdaptiveProbe{}, err
		}
		p := AdaptiveProbe{Freq: f, Degradation: 1 - mbps/baseline}
		if p.Degradation < 0 {
			p.Degradation = 0
		}
		res.Probes = append(res.Probes, p)
		if p.Degradation > res.Best.Degradation {
			res.Best = p
		}
		return p, nil
	}

	// Exploration: a third of the budget on stratified random samples.
	explore := a.Budget / 3
	if explore < 3 {
		explore = 3
	}
	span := float64(adaptiveHigh - adaptiveLow)
	for i := 0; i < explore && len(res.Probes) < a.Budget; i++ {
		stratum := span * float64(i) / float64(explore)
		f := adaptiveLow + units.Frequency(stratum+rng.Float64()*span/float64(explore))
		if _, err := probe(f); err != nil {
			return res, err
		}
	}

	// Exploitation: halving-step hill climb from the best point.
	step := units.Frequency(span / float64(explore) / 2)
	for len(res.Probes) < a.Budget && step >= 10 {
		improved := false
		for _, cand := range []units.Frequency{res.Best.Freq - step, res.Best.Freq + step} {
			if cand < adaptiveLow || cand > adaptiveHigh || len(res.Probes) >= a.Budget {
				continue
			}
			before := res.Best.Degradation
			if _, err := probe(cand); err != nil {
				return res, err
			}
			if res.Best.Degradation > before {
				improved = true
			}
		}
		if !improved {
			step /= 2
		}
	}
	return res, nil
}

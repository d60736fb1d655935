package attack

import (
	"errors"
	"sort"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/netstore"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// RemoteProbe is one frequency's externally observable measurement: the
// attacker sees request latencies and failure counts, nothing else.
type RemoteProbe struct {
	Freq units.Frequency
	// MedianLatency is the median PUT round trip observed.
	MedianLatency time.Duration
	// Timeouts and Errors count failed probes.
	Timeouts, Errors int
	// Probes is the number of requests issued.
	Probes int
}

// Suspicious reports whether the probe indicates a vulnerable frequency
// given the healthy-baseline latency.
func (p RemoteProbe) Suspicious(baseline time.Duration) bool {
	if p.Timeouts+p.Errors > 0 {
		return true
	}
	return p.MedianLatency > 3*baseline
}

// RemoteSweepResult is the attacker's inferred picture of the victim.
type RemoteSweepResult struct {
	Baseline time.Duration
	Probes   []RemoteProbe
	// InferredVulnerable are frequencies flagged from latency alone.
	InferredVulnerable []units.Frequency
	// InferredBands coalesces them.
	InferredBands []sig.Band
}

// RemoteSweeper performs the paper's §3 reconnaissance: sweep tones while
// watching only the latencies of an online application backed by the
// target. No drive-internal signals are consulted. The speaker sits at
// sweepDistance, the run uses sweepSeed, and every tone gets
// remoteProbesPerFreq PUT probes.
type RemoteSweeper struct {
	// Scenario fixes the victim enclosure.
	Scenario core.Scenario
	// Plan is the frequency schedule (defaults to a coarse paper sweep).
	Plan sig.SweepPlan
}

// remoteProbesPerFreq is the number of PUT probes per tone.
const remoteProbesPerFreq = 6

func (r RemoteSweeper) withDefaults() RemoteSweeper {
	if r.Scenario == 0 {
		r.Scenario = core.Scenario2
	}
	if r.Plan.CoarseStep == 0 {
		r.Plan = sig.PaperSweep()
	}
	return r
}

// Run executes the remote sweep. The victim service is created fresh with
// a preloaded object store; the attacker then walks the coarse plan,
// issuing PUT probes at every tone and timing the answers.
func (r RemoteSweeper) Run() (RemoteSweepResult, error) {
	r = r.withDefaults()
	if err := r.Plan.Validate(); err != nil {
		return RemoteSweepResult{}, err
	}
	rig, err := core.NewRig(r.Scenario, sweepDistance, sweepSeed)
	if err != nil {
		return RemoteSweepResult{}, err
	}
	srv := netstore.NewServer(rig.Disk, rig.Clock, netstore.Config{
		Seed: sweepSeed,
		// A short server budget keeps each dead-frequency probe cheap.
		Timeout: 2 * time.Second,
	})
	if err := srv.Preload(); err != nil {
		return RemoteSweepResult{}, err
	}

	probe := func(f units.Frequency, object int) RemoteProbe {
		p := RemoteProbe{Freq: f, Probes: remoteProbesPerFreq}
		var lats []time.Duration
		for i := 0; i < remoteProbesPerFreq; i++ {
			resp := srv.Handle(netstore.Put, (object+i)%srv.Config().Objects)
			lats = append(lats, resp.Latency)
			switch {
			case errors.Is(resp.Err, netstore.ErrTimeout):
				p.Timeouts++
			case resp.Err != nil:
				p.Errors++
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p.MedianLatency = lats[len(lats)/2]
		return p
	}

	// Healthy baseline with the speaker silent.
	rig.Silence()
	base := probe(0, 0)
	res := RemoteSweepResult{Baseline: base.MedianLatency}

	obj := 100
	probeAt := func(f units.Frequency) RemoteProbe {
		rig.ApplyTone(sig.NewTone(f))
		p := probe(f, obj)
		obj += remoteProbesPerFreq
		res.Probes = append(res.Probes, p)
		// Let the victim drain between tones, like a careful attacker
		// pausing to avoid conflating adjacent probes.
		rig.Silence()
		rig.Clock.Sleep(200 * time.Millisecond)
		return p
	}

	var coarseVulnerable []units.Frequency
	coarse := r.Plan.CoarseFrequencies()
	for _, f := range coarse {
		if probeAt(f).Suspicious(res.Baseline) {
			coarseVulnerable = append(coarseVulnerable, f)
			res.InferredVulnerable = append(res.InferredVulnerable, f)
		}
	}
	// Refinement pass around vulnerable coarse hits, mirroring the
	// paper's 50 Hz narrowing — still from latency observations only.
	for _, f := range r.Plan.RefineAroundAll(coarseVulnerable, coarse) {
		if probeAt(f).Suspicious(res.Baseline) {
			res.InferredVulnerable = append(res.InferredVulnerable, f)
		}
	}
	res.InferredBands = sig.CoalesceBands(res.InferredVulnerable, r.Plan.CoarseStep+r.Plan.FineStep)
	return res, nil
}

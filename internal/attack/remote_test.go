package attack

import (
	"testing"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

func TestRemoteSweepInfersVulnerableBand(t *testing.T) {
	// The attacker, watching only request latencies and failures, must
	// find roughly the same band a drive-side sweep finds.
	r := RemoteSweeper{
		Scenario: core.Scenario2,
		Plan: sig.SweepPlan{
			Start: 100, End: 4000, CoarseStep: 300, FineStep: 100, DwellSec: 1,
		},
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline <= 0 {
		t.Fatal("no baseline measured")
	}
	if len(res.InferredBands) == 0 {
		t.Fatal("remote sweep inferred nothing")
	}
	band := res.InferredBands[0]
	if band.Low > 700 || band.High < 700 {
		t.Fatalf("inferred band %v misses the core of the true band", band)
	}
	if band.Low < 100 || band.Low > 700 {
		t.Errorf("inferred low edge %v, want ≈300-400 Hz", band.Low)
	}
	if band.High < 1000 || band.High > 2500 {
		t.Errorf("inferred high edge %v, want ≈1.3-1.9 kHz", band.High)
	}
}

func TestRemoteSweepQuietFrequenciesLookNormal(t *testing.T) {
	r := RemoteSweeper{
		Scenario: core.Scenario3,
		Plan: sig.SweepPlan{
			Start: 3000, End: 8000, CoarseStep: 1000, FineStep: 500, DwellSec: 1,
		},
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InferredVulnerable) != 0 {
		t.Fatalf("frequencies above the band flagged: %v", res.InferredVulnerable)
	}
	for _, p := range res.Probes {
		if p.Timeouts > 0 {
			t.Fatalf("timeouts at %v outside the band", p.Freq)
		}
	}
}

func TestRemoteProbeSuspicious(t *testing.T) {
	base := 3 * time.Millisecond
	if (RemoteProbe{MedianLatency: 4 * time.Millisecond}).Suspicious(base) {
		t.Fatal("mild latency flagged")
	}
	if !(RemoteProbe{MedianLatency: 20 * time.Millisecond}).Suspicious(base) {
		t.Fatal("10x latency not flagged")
	}
	if !(RemoteProbe{MedianLatency: base, Timeouts: 1}).Suspicious(base) {
		t.Fatal("timeout not flagged")
	}
}

func TestRemoteSweepValidatesPlan(t *testing.T) {
	r := RemoteSweeper{Plan: sig.SweepPlan{Start: 10, End: 5, CoarseStep: 1, FineStep: 1, DwellSec: 1}}
	if _, err := r.Run(); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestRemoteSweepAgreesWithDirectSweep(t *testing.T) {
	plan := sig.SweepPlan{Start: 200, End: 3000, CoarseStep: 400, FineStep: 200, DwellSec: 1}
	remote, err := RemoteSweeper{Scenario: core.Scenario2, Plan: plan}.Run()
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := scenario2Sweep(t)
	if len(remote.InferredBands) == 0 || len(direct.Bands) == 0 {
		t.Fatal("bands missing")
	}
	rb, db := remote.InferredBands[0], direct.Bands[0]
	if rb.Low > db.High || db.Low > rb.High {
		t.Fatalf("remote band %v does not overlap direct band %v", rb, db)
	}
	// The remote estimate should not be wildly wider (more than one
	// coarse step per edge).
	slack := units.Frequency(plan.CoarseStep) * 2
	if rb.Low+slack < db.Low || rb.High > db.High+slack {
		t.Fatalf("remote band %v strays too far from direct band %v", rb, db)
	}
}

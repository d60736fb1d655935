package fleet

import (
	"testing"
	"time"

	"deepnote/internal/cluster"
)

// TestAttackAwarePlacementBeatsNaiveUnderFacilityAttack is the tier's
// headline acceptance: during a facility-level acoustic attack (three
// contiguous containers of site 0 silenced) with concurrent WAN faults
// (a link flap and a brownout over the same window), attack-aware
// placement must hold strictly higher GET availability and a strictly
// lower time-to-verdict P99 than the naive locality-greedy layout — and
// neither may ever serve corrupt bytes.
func TestAttackAwarePlacementBeatsNaiveUnderFacilityAttack(t *testing.T) {
	aware := serveAttacked(t, PlacementAttackAware, 0)
	naive := serveAttacked(t, PlacementNaive, 0)
	if aware.CorruptReads != 0 || naive.CorruptReads != 0 {
		t.Fatalf("corrupt reads: aware=%d naive=%d", aware.CorruptReads, naive.CorruptReads)
	}
	awareW, naiveW := aware.Window(atkStart, atkEnd), naive.Window(atkStart, atkEnd)
	if naiveW.GetAvailability() >= 0.999 {
		t.Fatalf("attack too weak: naive GET availability %.4f in the attack window", naiveW.GetAvailability())
	}
	if a, n := awareW.GetAvailability(), naiveW.GetAvailability(); a <= n {
		t.Fatalf("attack-aware GET availability %.4f not above naive %.4f during the attack", a, n)
	}
	if awareW.P99 >= naiveW.P99 {
		t.Fatalf("attack-aware P99 %v not below naive %v during the attack", awareW.P99, naiveW.P99)
	}
	if a, n := aware.GetAvailability(), naive.GetAvailability(); a <= n {
		t.Fatalf("attack-aware whole-run GET availability %.4f not above naive %.4f", a, n)
	}
	// The robustness machinery must actually have engaged: failover
	// waves past the blast, drops on the flapped link, a breaker
	// incident, and degraded (yet correct) reads.
	for name, v := range map[string]int{
		"aware failover waves": aware.FailoverWaves,
		"aware degraded reads": aware.DegradedReads,
		"aware WAN drops":      aware.WANDrops,
		"naive WAN drops":      naive.WANDrops,
	} {
		if v == 0 {
			t.Fatalf("%s = 0; the campaign never exercised the machinery", name)
		}
	}
	// Outside the attack window the aware fleet must recover to full
	// availability — the incident ends, the breakers close.
	after := aware.Window(atkEnd+100*time.Millisecond, aware.Span+1)
	if after.Gets > 0 && after.GetAvailability() != 1 {
		t.Fatalf("aware fleet did not recover after the attack: %.4f", after.GetAvailability())
	}
}

// TestAttackWindowRecovery: the attack schedule is honored in time —
// availability inside the keyed-on window drops, and the same fleet
// serves clean before and after it (speakers off, WAN healthy).
func TestAttackWindowRecovery(t *testing.T) {
	res := serveAttacked(t, PlacementNaive, 0)
	// Keep a margin before the key-on: a request arriving just before
	// the attack legitimately completes inside it.
	before := res.Window(0, atkStart-200*time.Millisecond)
	during := res.Window(atkStart, atkEnd)
	if before.GetAvailability() != 1 {
		t.Fatalf("pre-attack availability %.4f, want 1", before.GetAvailability())
	}
	if during.GetAvailability() >= before.GetAvailability() {
		t.Fatalf("attack window availability %.4f not below pre-attack %.4f",
			during.GetAvailability(), before.GetAvailability())
	}
	if during.P99 <= before.P99 {
		t.Fatalf("attack window P99 %v not above pre-attack %v", during.P99, before.P99)
	}
}

// TestHedgingEngagesUnderBrownout: a heavy brownout on every link
// stretches cross-site reads past hedgeAfter, so failover waves must
// start hedging (and the hedges must not double-count).
func TestHedgingEngagesUnderBrownout(t *testing.T) {
	cfg := testFleetConfig(PlacementAttackAware, 0, 0, 1, 2)
	cfg.WAN.Faults = []Fault{
		{Kind: Brownout, A: 0, B: 1, Duration: time.Hour, Factor: 8},
		{Kind: Brownout, A: 0, B: 2, Duration: time.Hour, Factor: 8},
		{Kind: Brownout, A: 1, B: 2, Duration: time.Hour, Factor: 8},
	}
	f := buildFleet(t, cfg)
	if err := f.SetAttack(0, []cluster.ScheduleStep{{At: 0, Active: []bool{true, true, true}}}); err != nil {
		t.Fatal(err)
	}
	res, err := f.Serve(TrafficSpec{Requests: 800, Rate: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if res.HedgedRequests == 0 {
		t.Fatal("no request hedged despite browned-out failover")
	}
	if res.HedgedRequests > res.Gets {
		t.Fatalf("hedged requests %d exceed GETs %d (double-counted)", res.HedgedRequests, res.Gets)
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads: %d", res.CorruptReads)
	}
}

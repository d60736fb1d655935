package cluster

import (
	"reflect"
	"testing"
	"time"

	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// defenseScenario builds the PR 5 one-speaker-past-the-cliff scenario
// with staged escalation: 4+2 over six containers, speakers pressed
// against containers 0, 1, 2 keying on one at a time. Three silenced
// failure domains exceed the parity budget, so defense-off reads start
// hard-failing after the third key-on.
func defenseScenario(t *testing.T, workers int, defended bool) (*Cluster, ServeResult) {
	t.Helper()
	tone := sig.NewTone(650 * units.Hz)
	lay := LineLayout(6, 2*units.Meter).WithSpeakersAt(tone, 0, 1, 2)
	c, err := New(Config{
		Layout:     lay,
		DataShards: 4, ParityShards: 2,
		Objects: 24, ObjectSize: 16 << 10,
		Seed:    Ptr(int64(7)),
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(); err != nil {
		t.Fatal(err)
	}
	// Staged escalation over a 1.2 s client window (600 req @ 500/s):
	// key-ons at 0.3, 0.6, 0.9 s.
	steps := []ScheduleStep{
		{At: 300 * time.Millisecond, Active: []bool{true, false, false}},
		{At: 600 * time.Millisecond, Active: []bool{true, true, false}},
		{At: 900 * time.Millisecond, Active: []bool{true, true, true}},
	}
	c.SetSchedule(steps)
	if defended {
		// Hand-built fixes standing in for the sonar layer: each key-on
		// localized to the true speaker position with a 20 cm error
		// radius, available 120 ms after the onset (propagation + one
		// processing window).
		var fixes []SourceFix
		for i, st := range steps {
			fixes = append(fixes, SourceFix{
				At:   st.At + 120*time.Millisecond,
				Pos:  lay.Speakers[i].Pos,
				Err:  20 * units.Centimeter,
				Tone: tone,
			})
		}
		if err := c.SetDefense(DefenseSpec{Fixes: fixes}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.Serve(TrafficSpec{Requests: 600, Rate: 500, Seed: Ptr(int64(11))})
	if err != nil {
		t.Fatal(err)
	}
	return c, res
}

// TestDefenseImprovesAvailabilityPastCliff is the acceptance scenario:
// under staged escalation one speaker past the parity budget, the closed
// loop must measurably improve GET availability over defense-off, with
// zero corrupt serves either way.
func TestDefenseImprovesAvailabilityPastCliff(t *testing.T) {
	_, off := defenseScenario(t, 0, false)
	con, on := defenseScenario(t, 0, true)

	if off.CorruptReads != 0 || on.CorruptReads != 0 {
		t.Fatalf("corrupt reads: off=%d on=%d, want 0", off.CorruptReads, on.CorruptReads)
	}
	if off.GetFailures == 0 {
		t.Fatalf("defense-off saw no GET failures — the scenario never went past the cliff")
	}
	offAvail, onAvail := off.GetAvailability(), on.GetAvailability()
	if onAvail <= offAvail {
		t.Fatalf("defense did not improve GET availability: off %.4f, on %.4f", offAvail, onAvail)
	}
	if onAvail-offAvail < 0.05 {
		t.Fatalf("defense improvement not measurable: off %.4f, on %.4f", offAvail, onAvail)
	}
	if !con.Defended() {
		t.Fatalf("Defended() false after SetDefense")
	}
	if on.EvacWrites == 0 || on.ReplicaReads == 0 || on.SteeredGets == 0 {
		t.Fatalf("defense machinery idle: evacs=%d replicaReads=%d steered=%d",
			on.EvacWrites, on.ReplicaReads, on.SteeredGets)
	}
	if planned, _ := con.DefenseEvacsPlanned(); planned != on.EvacWrites {
		t.Fatalf("EvacWrites %d != planned %d", on.EvacWrites, planned)
	}
	// Defense-off must report none of the defense counters.
	if off.SteeredGets+off.ReplicaReads+off.ReplicaReadErrors+off.EvacWrites+off.EvacFailures+off.EvacSkipped != 0 {
		t.Fatalf("defense-off run reported defense activity: %+v", off)
	}
}

// TestDefenseDeterministicAcrossWorkers runs the defended scenario at
// several worker counts and requires byte-identical results.
func TestDefenseDeterministicAcrossWorkers(t *testing.T) {
	_, base := defenseScenario(t, 1, true)
	for _, w := range []int{2, 8} {
		if _, res := defenseScenario(t, w, true); !reflect.DeepEqual(base, res) {
			t.Fatalf("workers=%d diverged from workers=1:\n 1: %+v\n %d: %+v", w, base, w, res)
		}
	}
}

// TestDefenseEmptyFixesDisables checks SetDefense([]) returns the
// cluster to the exact defense-off behavior.
func TestDefenseEmptyFixesDisables(t *testing.T) {
	_, off := defenseScenario(t, 0, false)

	tone := sig.NewTone(650 * units.Hz)
	lay := LineLayout(6, 2*units.Meter).WithSpeakersAt(tone, 0, 1, 2)
	c, err := New(Config{
		Layout:     lay,
		DataShards: 4, ParityShards: 2,
		Objects: 24, ObjectSize: 16 << 10,
		Seed: Ptr(int64(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(); err != nil {
		t.Fatal(err)
	}
	c.SetSchedule([]ScheduleStep{
		{At: 300 * time.Millisecond, Active: []bool{true, false, false}},
		{At: 600 * time.Millisecond, Active: []bool{true, true, false}},
		{At: 900 * time.Millisecond, Active: []bool{true, true, true}},
	})
	if err := c.SetDefense(DefenseSpec{Fixes: []SourceFix{{At: time.Second}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDefense(DefenseSpec{}); err != nil {
		t.Fatal(err)
	}
	if c.Defended() {
		t.Fatalf("Defended() true after SetDefense with no fixes")
	}
	res, err := c.Serve(TrafficSpec{Requests: 600, Rate: 500, Seed: Ptr(int64(11))})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off, res) {
		t.Fatalf("disabled defense diverged from never-enabled:\n off: %+v\n res: %+v", off, res)
	}
}

// TestDefenseReEvacuatesWhenReplicaTargetGoesHotTwice drives the planner
// through two successive losses of the same shard's replica: the blast
// radius first swallows the shard's home, then the chosen evac target,
// then the re-chosen target, and each escalation must produce a fresh
// re-placement onto a container that is safe in that phase — with the
// final source order pointing at the last replica, not a stale one.
func TestDefenseReEvacuatesWhenReplicaTargetGoesHotTwice(t *testing.T) {
	tone := sig.NewTone(650 * units.Hz)
	// Eight containers, 4+2 stripes: objects of class 0 stripe across
	// containers 0-5, leaving 6 and 7 as spares. The attacker walks the
	// spares: speakers pressed against containers 0, 6, 7 key on in
	// stages, so shard 0's home goes hot, then its replica on the first
	// spare, then the replica's replica on the second.
	lay := LineLayout(8, 2*units.Meter).WithSpeakersAt(tone, 0, 6, 7)
	c, err := New(Config{
		Layout:     lay,
		DataShards: 4, ParityShards: 2,
		Objects: 16, ObjectSize: 16 << 10,
		Seed: Ptr(int64(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var fixes []SourceFix
	for i, at := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond} {
		fixes = append(fixes, SourceFix{
			At: at, Pos: lay.Speakers[i].Pos, Err: 20 * units.Centimeter, Tone: tone,
		})
	}
	if err := c.SetDefense(DefenseSpec{Fixes: fixes, React: Ptr(time.Duration(0))}); err != nil {
		t.Fatal(err)
	}
	ds := c.defense
	if ds == nil || len(ds.phases) != 3 {
		t.Fatalf("want 3 phases, got %+v", ds)
	}
	// Object 0 is class 0 (home of shard 0 = container 0). Its shard-0
	// re-placements, in phase order.
	var targets []int
	for _, ev := range ds.evacs {
		if ev.object == 0 && ev.shard == 0 {
			ct := c.drives.Stacks[ev.drive].Container
			p := ds.phaseFor(ev.at)
			if ds.phases[p].atRisk[ct] {
				t.Fatalf("re-placement %d of shard 0 targets container %d inside the phase-%d radius", len(targets), ct, p)
			}
			targets = append(targets, ct)
		}
	}
	if len(targets) != 3 {
		t.Fatalf("shard 0 re-placed %d times (targets %v), want 3 (initial + twice re-evacuated)", len(targets), targets)
	}
	if targets[0] != 6 || targets[1] != 7 {
		t.Fatalf("replica walk %v, want spares 6 then 7 first", targets)
	}
	if targets[2] == 0 || targets[2] == 6 || targets[2] == 7 {
		t.Fatalf("final replica landed back inside the radius: %v", targets)
	}
	// The final phase's GET order must reference the final replica for
	// shard 0, before any at-risk leftovers.
	order := ds.phases[2].orders[c.class(0)]
	found := false
	for _, ref := range order {
		if ref.shard() != 0 {
			continue
		}
		ct, alt := ref.altContainer()
		if !alt || ct != targets[2] {
			t.Fatalf("final order references shard 0 via container %d (alt=%v), want replica on %d", ct, alt, targets[2])
		}
		found = true
		break
	}
	if !found {
		t.Fatalf("shard 0 missing from final source order %v", order)
	}
}

// TestDefenseSpecZeroFieldsHonored pins the pointer-field zero-vs-unset
// contract: an explicit zero React (instant controller) must activate
// the phase exactly at the fix time instead of being silently replaced
// by the 50 ms default, and an explicit zero Margin (maximum paranoia)
// must mark every excited container at risk.
func TestDefenseSpecZeroFieldsHonored(t *testing.T) {
	tone := sig.NewTone(650 * units.Hz)
	lay := LineLayout(6, 2*units.Meter).WithSpeakersAt(tone, 0)
	build := func() *Cluster {
		c, err := New(Config{
			Layout:     lay,
			DataShards: 4, ParityShards: 2,
			Objects: 24, ObjectSize: 16 << 10,
			Seed: Ptr(int64(7)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fix := SourceFix{
		At:  300 * time.Millisecond,
		Pos: lay.Speakers[0].Pos,
		Err: 20 * units.Centimeter, Tone: tone,
	}

	c := build()
	if err := c.SetDefense(DefenseSpec{Fixes: []SourceFix{fix}}); err != nil {
		t.Fatal(err)
	}
	wantDefault := int64(fix.At + 50*time.Millisecond)
	if got := c.defense.phases[0].at; got != wantDefault {
		t.Fatalf("nil React: phase at %d ns, want fix + 50ms default = %d", got, wantDefault)
	}
	defaultHot := 0
	for _, hot := range c.defense.phases[0].atRisk {
		if hot {
			defaultHot++
		}
	}

	c = build()
	if err := c.SetDefense(DefenseSpec{Fixes: []SourceFix{fix}, React: Ptr(time.Duration(0))}); err != nil {
		t.Fatal(err)
	}
	if got := c.defense.phases[0].at; got != int64(fix.At) {
		t.Fatalf("explicit zero React replaced by default: phase at %d ns, want %d", got, int64(fix.At))
	}

	c = build()
	if err := c.SetDefense(DefenseSpec{Fixes: []SourceFix{fix}, Margin: Ptr(0.0)}); err != nil {
		t.Fatal(err)
	}
	zeroHot := 0
	for _, hot := range c.defense.phases[0].atRisk {
		if hot {
			zeroHot++
		}
	}
	if zeroHot != len(lay.Containers) {
		t.Fatalf("explicit zero Margin: %d/%d containers at risk, want all", zeroHot, len(lay.Containers))
	}
	if defaultHot >= zeroHot {
		t.Fatalf("default Margin marks %d containers hot, zero Margin %d — defaulting is not distinguishing them", defaultHot, zeroHot)
	}
}

// TestDefenseEvacTargetsAvoidBlastRadius checks the compiled plan never
// re-places a shard onto a container inside the predicted radius at the
// phase the write happens.
func TestDefenseEvacTargetsAvoidBlastRadius(t *testing.T) {
	con, _ := defenseScenario(t, 0, true)
	ds := con.defense
	if ds == nil {
		t.Fatal("no defense plan")
	}
	if len(ds.phases) != 3 {
		t.Fatalf("got %d phases, want 3 (one per staged fix)", len(ds.phases))
	}
	for _, ev := range ds.evacs {
		p := ds.phaseFor(ev.at)
		if p < 0 {
			t.Fatalf("evac at %d ns predates every phase", ev.at)
		}
		ct := con.drives.Stacks[ev.drive].Container
		if ds.phases[p].atRisk[ct] {
			t.Fatalf("evac of object %d shard %d targets container %d inside the phase-%d blast radius",
				ev.object, ev.shard, ct, p)
		}
	}
	// Escalation must accumulate: each phase's radius contains the last.
	for p := 1; p < len(ds.phases); p++ {
		for ct, hot := range ds.phases[p-1].atRisk {
			if hot && !ds.phases[p].atRisk[ct] {
				t.Fatalf("container %d left the blast radius between phases %d and %d", ct, p-1, p)
			}
		}
	}
}

// TestDefenseConfidenceGate: fixes below MinConfidence must not escalate
// the defense — a benign-noise misfire from the detection layer cannot
// trigger evacuations — while high-confidence fixes still compile into a
// plan. This is the fingerprint-verdict gate on SetDefense.
func TestDefenseConfidenceGate(t *testing.T) {
	tone := sig.NewTone(650 * units.Hz)
	lay := LineLayout(6, 2*units.Meter).WithSpeakersAt(tone, 0)
	c, err := New(Config{
		Layout:     lay,
		DataShards: 4, ParityShards: 2,
		Objects: 24, ObjectSize: 16 << 10,
		Seed: Ptr(int64(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(); err != nil {
		t.Fatal(err)
	}
	low := SourceFix{At: 100 * time.Millisecond, Pos: lay.Speakers[0].Pos,
		Err: 20 * units.Centimeter, Tone: tone, Confidence: 0.2}
	high := low
	high.At, high.Confidence = 200*time.Millisecond, 0.9

	// All fixes below the gate: the defense never arms.
	if err := c.SetDefense(DefenseSpec{Fixes: []SourceFix{low}, MinConfidence: Ptr(0.5)}); err != nil {
		t.Fatal(err)
	}
	if c.Defended() || defenseFixes(c) != nil {
		t.Fatal("low-confidence fix escalated the defense")
	}
	// Mixed: only the high-confidence fix survives the gate.
	if err := c.SetDefense(DefenseSpec{Fixes: []SourceFix{low, high}, MinConfidence: Ptr(0.5)}); err != nil {
		t.Fatal(err)
	}
	if !c.Defended() {
		t.Fatal("high-confidence fix did not arm the defense")
	}
	if got := defenseFixes(c); len(got) != 1 || got[0].Confidence != 0.9 {
		t.Fatalf("defense fixes = %+v, want only the 0.9-confidence fix", got)
	}
	// Nil gate keeps the pre-fingerprint behavior: unscored fixes pass.
	if err := c.SetDefense(DefenseSpec{Fixes: []SourceFix{{At: time.Second, Pos: lay.Speakers[0].Pos,
		Err: 20 * units.Centimeter, Tone: tone}}}); err != nil {
		t.Fatal(err)
	}
	if !c.Defended() || len(defenseFixes(c)) != 1 {
		t.Fatal("unscored fix rejected with no gate configured")
	}
	// Out-of-range gates are rejected, not clamped.
	for _, mc := range []float64{-0.1, 1.5} {
		if err := c.SetDefense(DefenseSpec{Fixes: []SourceFix{high}, MinConfidence: Ptr(mc)}); err == nil {
			t.Fatalf("MinConfidence %g accepted", mc)
		}
	}
}

// TestDefenseEvacsNondecreasing pins the ordering Serve relies on to
// push re-placement writes in time order: the compiled evac list is
// nondecreasing in activation time, whatever order the fixes came in.
func TestDefenseEvacsNondecreasing(t *testing.T) {
	tone := sig.NewTone(650 * units.Hz)
	lay := LineLayout(8, 2*units.Meter).WithSpeakersAt(tone, 0, 6, 7)
	c, err := New(Config{
		Layout:     lay,
		DataShards: 4, ParityShards: 2,
		Objects: 16, ObjectSize: 16 << 10,
		Seed: Ptr(int64(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Fixes out of order, two of them simultaneous.
	var fixes []SourceFix
	for i, at := range []time.Duration{300 * time.Millisecond, 100 * time.Millisecond, 300 * time.Millisecond} {
		fixes = append(fixes, SourceFix{At: at, Pos: lay.Speakers[i].Pos, Err: 20 * units.Centimeter, Tone: tone})
	}
	if err := c.SetDefense(DefenseSpec{Fixes: fixes}); err != nil {
		t.Fatal(err)
	}
	evacs := c.defense.evacs
	if len(c.defense.phases) != 2 || len(evacs) == 0 {
		t.Fatalf("plan has %d phases and %d evacs, want 2 phases with evacs", len(c.defense.phases), len(evacs))
	}
	for i := 1; i < len(evacs); i++ {
		if evacs[i].at < evacs[i-1].at {
			t.Fatalf("evac %d activates at %d, before evac %d at %d", i, evacs[i].at, i-1, evacs[i-1].at)
		}
	}
}

// TestDefenseSameTimeEvacBeforeSteeredRead: a re-placement write and a
// steered read of its replica that share one activation time dispatch
// write first, so the read finds the replica. The speakers stay silent,
// so a replica read can only fail by running ahead of its write.
func TestDefenseSameTimeEvacBeforeSteeredRead(t *testing.T) {
	tone := sig.NewTone(650 * units.Hz)
	lay := LineLayout(6, 2*units.Meter).WithSpeakersAt(tone, 0, 1, 2)
	c, err := New(Config{
		Layout:     lay,
		DataShards: 4, ParityShards: 2,
		Objects: 24, ObjectSize: 16 << 10,
		Seed: Ptr(int64(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(); err != nil {
		t.Fatal(err)
	}
	// One phase with three containers hot, activating at 500 ms: the
	// arrival of request 250 at 500 req/s. With three healthy homes and
	// k = 4, every GET from then on reads one replica in its first wave.
	const activate = 500 * time.Millisecond
	var fixes []SourceFix
	for i := range lay.Speakers {
		fixes = append(fixes, SourceFix{At: activate, Pos: lay.Speakers[i].Pos, Err: 20 * units.Centimeter, Tone: tone})
	}
	if err := c.SetDefense(DefenseSpec{Fixes: fixes, React: Ptr(time.Duration(0))}); err != nil {
		t.Fatal(err)
	}
	if ph := c.defense.phases; len(ph) != 1 || ph[0].at != int64(activate) {
		t.Fatalf("want one phase at %v, got %d", activate, len(ph))
	}
	if got := ArrivalNS(250, 500); got != int64(activate) {
		t.Fatalf("request 250 arrives at %d, not at the activation", got)
	}
	res, err := c.Serve(TrafficSpec{Requests: 252, Rate: 500, ReadFraction: Ptr(1.0), Seed: Ptr(int64(11))})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicaReads < 2 || res.ReplicaReadErrors != 0 {
		t.Fatalf("replica reads %d, errors %d: want the reads at and after the activation to find their replicas",
			res.ReplicaReads, res.ReplicaReadErrors)
	}
	if res.EvacFailures != 0 || res.GetFailures != 0 {
		t.Fatalf("silent cluster failed %d evacs and %d GETs", res.EvacFailures, res.GetFailures)
	}
}

// defenseFixes returns the fixes the active plan compiled from — after
// the confidence gate, sorted by arrival. Nil when defense is off.
func defenseFixes(c *Cluster) []SourceFix {
	if c.defense == nil {
		return nil
	}
	return c.defense.spec.Fixes
}

package attack

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/metrics"
)

func runSweep(t *testing.T, workers int, reg *metrics.Registry) SweepResult {
	t.Helper()
	res, err := Sweeper{
		Scenario: core.Scenario2,
		Workers:  workers,
		Metrics:  reg,
	}.Run(fio.SeqWrite)
	if err != nil {
		t.Fatalf("sweep (workers=%d): %v", workers, err)
	}
	return res
}

// sharedSweep is one Scenario-2 write sweep, run once and shared by
// every test that reads it.
type sharedSweep struct {
	once    sync.Once
	workers int
	metrics bool
	res     SweepResult
	snap    metrics.Snapshot
}

// The three sweeps the determinism tests compare: one worker with metrics
// on (the reference), two workers with metrics off, eight with metrics on.
var (
	serialSweep = &sharedSweep{workers: 1, metrics: true}
	bareSweep   = &sharedSweep{workers: 2}
	wideSweep   = &sharedSweep{workers: 8, metrics: true}
)

// get runs the sweep on first use and returns its result and snapshot
// (empty when metrics are off).
func (s *sharedSweep) get(t *testing.T) (SweepResult, metrics.Snapshot) {
	t.Helper()
	s.once.Do(func() {
		var reg *metrics.Registry
		if s.metrics {
			reg = metrics.NewRegistry()
		}
		s.res = runSweep(t, s.workers, reg)
		if reg != nil {
			s.snap = reg.Snapshot()
		}
	})
	if len(s.res.Points) == 0 {
		t.Fatalf("the shared sweep at workers=%d failed in an earlier test", s.workers)
	}
	return s.res, s.snap
}

// scenario2Sweep returns the shared serial sweep and its metrics snapshot.
func scenario2Sweep(t *testing.T) (SweepResult, metrics.Snapshot) {
	t.Helper()
	return serialSweep.get(t)
}

// TestSweepDeterministicAcrossWorkerCounts checks the §4.1 two-phase sweep,
// which fans both passes over the worker pool: the result (points, order,
// vulnerable set, bands) is identical for any parallelism.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	ref, _ := scenario2Sweep(t)
	if len(ref.Vulnerable) == 0 {
		t.Fatalf("degenerate reference sweep: %d points, none vulnerable", len(ref.Points))
	}
	for _, s := range []*sharedSweep{bareSweep, wideSweep} {
		if got, _ := s.get(t); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: sweep diverges from the serial run", s.workers)
		}
	}
}

// TestSweepResultsIdenticalWithMetricsOnOff is the determinism acceptance
// gate: instrumentation must never perturb the simulation, so the sweep
// without metrics equals both instrumented ones.
func TestSweepResultsIdenticalWithMetricsOnOff(t *testing.T) {
	bare, _ := bareSweep.get(t)
	for _, s := range []*sharedSweep{serialSweep, wideSweep} {
		if observed, _ := s.get(t); !reflect.DeepEqual(bare, observed) {
			t.Fatalf("results differ with metrics on at workers=%d:\nbare:     %+v\nobserved: %+v",
				s.workers, bare, observed)
		}
	}
}

// TestSweepSnapshotIdenticalAcrossWorkerCounts checks that the metric
// aggregation is commutative: the final snapshot is byte-identical no
// matter how the grid was scheduled.
func TestSweepSnapshotIdenticalAcrossWorkerCounts(t *testing.T) {
	_, refSnap := serialSweep.get(t)
	_, wideSnap := wideSweep.get(t)
	want, err := json.Marshal(refSnap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(wideSnap)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("snapshot differs at workers=8:\nref: %s\ngot: %s", want, got)
	}
}

// TestSweepPopulatesFiveLayers is the coverage acceptance gate: a plain
// sweep must produce non-zero counters from at least five distinct layers.
func TestSweepPopulatesFiveLayers(t *testing.T) {
	_, snap := scenario2Sweep(t)
	live := map[string]bool{} // layers with a non-zero counter
	for name, v := range snap.Counters {
		if v != 0 {
			live[metrics.Layer(name)] = true
		}
	}
	if len(live) < 5 {
		t.Fatalf("want ≥5 layers with non-zero counters, got %v", live)
	}
	for _, want := range []string{"hdd", "blockdev", "fio", "attack", "parallel"} {
		if !live[want] {
			t.Fatalf("layer %q missing from %v", want, live)
		}
	}
	// The sweep's own accounting must agree with itself: one measurement
	// per point plus the baseline.
	points := snap.Counters["attack.sweep_points"]
	if got := snap.Counters["attack.sweep_measurements"]; got != points+1 {
		t.Fatalf("measurements = %d, want points+baseline = %d", got, points+1)
	}
	if snap.Counters["fio.runs"] != points+1 {
		t.Fatalf("fio.runs = %d, want %d", snap.Counters["fio.runs"], points+1)
	}
}

// TestProlongedAttackPublishesStackLayers checks the deep-stack run lights
// up the filesystem, database, and OS layers too.
func TestProlongedAttackPublishesStackLayers(t *testing.T) {
	reg := metrics.NewRegistry()
	p := ProlongedAttack{Metrics: reg}
	for _, target := range []CrashTarget{TargetExt4, TargetUbuntu, TargetRocksDB} {
		if _, err := p.Run(target); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
	}
	snap := reg.Snapshot()
	live := map[string]bool{} // layers with a non-zero counter
	for name, v := range snap.Counters {
		if v != 0 {
			live[metrics.Layer(name)] = true
		}
	}
	for _, want := range []string{"hdd", "blockdev", "jfs", "kvdb", "osmodel", "attack"} {
		if !live[want] {
			t.Fatalf("layer %q missing from %v", want, live)
		}
	}
	if got := snap.Counters["attack.crash_runs"]; got != 3 {
		t.Fatalf("crash_runs = %d, want 3", got)
	}
}

package attack

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"deepnote/internal/core"
	"deepnote/internal/fio"
	"deepnote/internal/metrics"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// testPlan is a small sweep that still finds the vulnerable band, keeping
// the determinism matrix below fast.
func testPlan() sig.SweepPlan {
	return sig.SweepPlan{
		Start: 300 * units.Hz, End: 1500 * units.Hz,
		CoarseStep: 300 * units.Hz, FineStep: 100 * units.Hz, DwellSec: 1,
	}
}

func runSweep(t *testing.T, workers int, reg *metrics.Registry) SweepResult {
	t.Helper()
	res, err := Sweeper{
		Scenario:   core.Scenario2,
		Plan:       testPlan(),
		JobRuntime: 300 * time.Millisecond,
		Workers:    workers,
		Metrics:    reg,
	}.Run(fio.SeqWrite)
	if err != nil {
		t.Fatalf("sweep (workers=%d): %v", workers, err)
	}
	return res
}

// TestSweepResultsIdenticalWithMetricsOnOff is the determinism acceptance
// gate: instrumentation must never perturb the simulation.
func TestSweepResultsIdenticalWithMetricsOnOff(t *testing.T) {
	bare := runSweep(t, 2, nil)
	observed := runSweep(t, 2, metrics.NewRegistry())
	if !reflect.DeepEqual(bare, observed) {
		t.Fatalf("results differ with metrics on:\nbare:     %+v\nobserved: %+v", bare, observed)
	}
}

// TestSweepSnapshotIdenticalAcrossWorkerCounts checks that the metric
// aggregation is commutative: the final snapshot is byte-identical no
// matter how the grid was scheduled.
func TestSweepSnapshotIdenticalAcrossWorkerCounts(t *testing.T) {
	var refResult SweepResult
	var refJSON []byte
	for i, workers := range []int{1, 2, 8} {
		reg := metrics.NewRegistry()
		res := runSweep(t, workers, reg)
		data, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refResult, refJSON = res, data
			continue
		}
		if !reflect.DeepEqual(res, refResult) {
			t.Fatalf("sweep result differs at workers=%d", workers)
		}
		if string(data) != string(refJSON) {
			t.Fatalf("snapshot differs at workers=%d:\nref: %s\ngot: %s", workers, refJSON, data)
		}
	}
}

// TestSweepPopulatesFiveLayers is the coverage acceptance gate: a plain
// sweep must produce non-zero counters from at least five distinct layers.
func TestSweepPopulatesFiveLayers(t *testing.T) {
	reg := metrics.NewRegistry()
	runSweep(t, 0, reg)
	snap := reg.Snapshot()
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
	p := ProlongedAttack{Timeout: 30 * time.Second, Metrics: reg}
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

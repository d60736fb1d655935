package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"deepnote/internal/metrics"
)

// testClusterSpec is a small, fast ladder: 6 containers, 4-of-6 code,
// three-speaker ladder.
func testClusterSpec() ClusterSpec {
	s := DefaultClusterSpec()
	s.MaxSpeakers = 3
	s.Objects = 16
	s.ObjectSize = 8 << 10
	s.Requests = 100
	s.Rate = 2000
	s.Seed = 5
	return s
}

// TestClusterSweepAvailabilityCliff: with a full-window attack, the
// 4-of-6 cluster rides out up to 2 silenced containers at 100% GET
// availability and collapses beyond the parity budget — the acceptance
// criterion at the campaign level.
func TestClusterSweepAvailabilityCliff(t *testing.T) {
	spec := testClusterSpec()
	spec.AttackStartFrac = 1e-9 // on from the first request...
	spec.AttackStopFrac = 1     // ...and never keyed off
	rows, err := ClusterSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 ladder cells, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Silenced != r.Speakers {
			t.Fatalf("speakers=%d: silenced %d containers, want %d (point-blank must servo-lock)",
				r.Speakers, r.Silenced, r.Speakers)
		}
		if r.Serve.CorruptReads != 0 {
			t.Fatalf("speakers=%d: %d corrupt reads", r.Speakers, r.Serve.CorruptReads)
		}
		switch {
		case r.Speakers <= 2:
			if got := r.Serve.GetAvailability(); got != 1 {
				t.Fatalf("speakers=%d: GET availability %.4f, want 1.0", r.Speakers, got)
			}
		default:
			if got := r.Serve.GetAvailability(); got != 0 {
				t.Fatalf("speakers=%d: GET availability %.4f, want 0 (beyond n−k domains)", r.Speakers, got)
			}
		}
		if r.Speakers > 0 && r.Speakers <= 2 && r.Serve.DegradedReads == 0 {
			t.Fatalf("speakers=%d: expected degraded reads", r.Speakers)
		}
	}
}

// TestClusterSweepMidRunWindowRecovers: with the default mid-run attack
// window the speakers key off again, so even the over-budget cell keeps
// higher availability than a sustained attack — while the attack still
// leaves a visible mark on the serving record.
func TestClusterSweepMidRunWindowRecovers(t *testing.T) {
	spec := testClusterSpec()
	rows, err := ClusterSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if got := last.Serve.GetAvailability(); got == 0 {
		t.Fatalf("speakers=%d with mid-run window: GET availability 0, want recovery after the window",
			last.Speakers)
	}
	if last.Serve.DegradedReads == 0 && last.Serve.GetFailures == 0 {
		t.Fatalf("speakers=%d: attack window left no trace (no degraded reads, no failures)", last.Speakers)
	}
	if last.Serve.P99 <= rows[0].Serve.P99 {
		t.Fatalf("attacked P99 %v not above healthy P99 %v", last.Serve.P99, rows[0].Serve.P99)
	}
}

// TestClusterSweepDeterministicAcrossWorkers: rows, rendered report, and
// metrics snapshot are byte-identical at workers 1/2/8.
func TestClusterSweepDeterministicAcrossWorkers(t *testing.T) {
	var baseRows []ClusterResult
	var baseReport string
	var baseSnap []byte
	for i, workers := range []int{1, 2, 8} {
		spec := testClusterSpec()
		spec.Workers = workers
		spec.Metrics = metrics.NewRegistry()
		rows, err := ClusterSweep(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep := ClusterReport(rows).String()
		snap, err := json.Marshal(spec.Metrics.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			baseRows, baseReport, baseSnap = rows, rep, snap
			continue
		}
		if !reflect.DeepEqual(rows, baseRows) {
			t.Fatalf("workers=%d: rows diverged from workers=1", workers)
		}
		if rep != baseReport {
			t.Fatalf("workers=%d: report diverged from workers=1", workers)
		}
		if !bytes.Equal(snap, baseSnap) {
			t.Fatalf("workers=%d: metrics snapshot diverged from workers=1", workers)
		}
	}
}

// TestClusterSweepResultsIdenticalWithMetricsOnOff: instrumentation is
// pure observation (PR 2 convention).
func TestClusterSweepResultsIdenticalWithMetricsOnOff(t *testing.T) {
	bareSpec := testClusterSpec()
	bare, err := ClusterSweep(bareSpec)
	if err != nil {
		t.Fatal(err)
	}
	obsSpec := testClusterSpec()
	obsSpec.Metrics = metrics.NewRegistry()
	observed, err := ClusterSweep(obsSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Fatal("metrics changed sweep results")
	}
	snap := obsSpec.Metrics.Snapshot()
	if got := snap.Counters["experiment.cluster_cells"]; got != int64(len(observed)) {
		t.Fatalf("experiment.cluster_cells = %d, want %d", got, len(observed))
	}
	live := map[string]bool{} // layers with a non-zero counter
	for name, v := range snap.Counters {
		if v != 0 {
			live[metrics.Layer(name)] = true
		}
	}
	for _, layer := range []string{"cluster", "hdd", "blockdev", "netstore", "parallel"} {
		if !live[layer] {
			t.Fatalf("layer %q missing from %v", layer, live)
		}
	}
}

// TestClusterSweepDefendedCell: the ladder with the closed loop on. The
// over-budget cell (speakers = parity+1) must recover measurable GET
// availability versus the same staggered escalation undefended, and the
// defense must leave its counters in the serving record.
func TestClusterSweepDefendedCell(t *testing.T) {
	// The request window must comfortably outlast the sonar processing
	// window plus the controller lag, or no request ever reaches a
	// defense phase: 300 requests at 500/s is a 600 ms window against
	// ~155 ms from key-on to policy switch.
	undefended := testClusterSpec()
	undefended.Cells = []int{3}
	undefended.StaggerFrac = 0.2
	undefended.Requests = 300
	undefended.Rate = 500
	offRows, err := ClusterSweep(undefended)
	if err != nil {
		t.Fatal(err)
	}
	defended := undefended
	defended.Defense = true
	onRows, err := ClusterSweep(defended)
	if err != nil {
		t.Fatal(err)
	}
	off, on := offRows[0].Serve, onRows[0].Serve
	if off.SteeredGets != 0 || off.EvacWrites != 0 {
		t.Fatalf("undefended cell reported defense activity: steered=%d evacs=%d",
			off.SteeredGets, off.EvacWrites)
	}
	if on.SteeredGets == 0 || on.EvacWrites == 0 || on.ReplicaReads == 0 {
		t.Fatalf("defense machinery idle: steered=%d evacs=%d replicaReads=%d",
			on.SteeredGets, on.EvacWrites, on.ReplicaReads)
	}
	if off.CorruptReads != 0 || on.CorruptReads != 0 {
		t.Fatalf("corrupt reads: off=%d on=%d", off.CorruptReads, on.CorruptReads)
	}
	if gain := on.GetAvailability() - off.GetAvailability(); gain < 0.05 {
		t.Fatalf("defense gain %.4f not measurable (off %.4f, on %.4f)",
			gain, off.GetAvailability(), on.GetAvailability())
	}
}

package campaign

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"deepnote/internal/metrics"
)

// metricsGrid is the 3×3 duty-cycle grid over a short campaign, fast
// enough for the workers × metrics determinism matrix below.
func metricsGrid(workers int, reg *metrics.Registry) Grid {
	return Grid{
		Base:    Stealth{Duration: 6 * time.Second, Seed: 1},
		Workers: workers,
		Metrics: reg,
	}
}

// TestGridResultsIdenticalWithMetricsOnOff is the PR 2 acceptance
// convention: instrumentation must never perturb the simulation.
func TestGridResultsIdenticalWithMetricsOnOff(t *testing.T) {
	bare, err := metricsGrid(2, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	observed, err := metricsGrid(2, metrics.NewRegistry()).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Fatal("metrics changed grid results")
	}
}

// TestGridSnapshotIdenticalAcrossWorkerCounts checks commutative
// aggregation: the snapshot is byte-identical no matter how the grid's
// cells were scheduled onto workers.
func TestGridSnapshotIdenticalAcrossWorkerCounts(t *testing.T) {
	var refRows []Result
	var refJSON []byte
	for i, workers := range []int{1, 2, 8} {
		reg := metrics.NewRegistry()
		rows, err := metricsGrid(workers, reg).Run()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refRows, refJSON = rows, data
			continue
		}
		if !reflect.DeepEqual(rows, refRows) {
			t.Fatalf("grid rows differ at workers=%d", workers)
		}
		if string(data) != string(refJSON) {
			t.Fatalf("snapshot differs at workers=%d:\nref: %s\ngot: %s", workers, refJSON, data)
		}
	}
}

// TestGridPublishesCampaignAndStackLayers checks coverage: the grid's own
// accounting plus the victim rig's drive and disk layers all land in the
// registry, and the campaign counters agree with the returned rows.
func TestGridPublishesCampaignAndStackLayers(t *testing.T) {
	reg := metrics.NewRegistry()
	rows, err := metricsGrid(0, reg).Run()
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	live := map[string]bool{} // layers with a non-zero counter
	for name, v := range snap.Counters {
		if v != 0 {
			live[metrics.Layer(name)] = true
		}
	}
	for _, want := range []string{"campaign", "hdd", "blockdev", "parallel"} {
		if !live[want] {
			t.Fatalf("layer %q missing from %v", want, live)
		}
	}
	if got := snap.Counters["campaign.grid_cells"]; got != int64(len(rows)) {
		t.Fatalf("campaign.grid_cells = %d, want %d", got, len(rows))
	}
	if got := snap.Counters["campaign.runs"]; got != int64(len(rows)) {
		t.Fatalf("campaign.runs = %d, want %d", got, len(rows))
	}
	var alarms, bursts int64
	for _, r := range rows {
		alarms += int64(r.Alarms)
	}
	if got := snap.Counters["campaign.alarms"]; got != alarms {
		t.Fatalf("campaign.alarms = %d, rows sum to %d", got, alarms)
	}
	if bursts = snap.Counters["campaign.bursts"]; bursts <= 0 {
		t.Fatalf("campaign.bursts = %d, want > 0", bursts)
	}
	var maxSus float64
	for _, r := range rows {
		if r.MaxSuspicion > maxSus {
			maxSus = r.MaxSuspicion
		}
	}
	if got := snap.Gauges["campaign.max_suspicion"]; got != maxSus {
		t.Fatalf("campaign.max_suspicion gauge = %v, rows max %v", got, maxSus)
	}
}

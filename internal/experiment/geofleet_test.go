package experiment

import (
	"reflect"
	"strings"
	"testing"

	"deepnote/internal/metrics"
)

// TestGeoFleetAwareBeatsNaive is the campaign's acceptance: under the
// default facility attack with concurrent WAN faults, attack-aware
// placement holds strictly higher GET availability and a strictly lower
// time-to-verdict P99 than the naive layout — with zero corrupt reads on
// either side.
func TestGeoFleetAwareBeatsNaive(t *testing.T) {
	res, err := GeoFleetRun(DefaultGeoFleetSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Aware.CorruptReads != 0 || res.Naive.CorruptReads != 0 {
		t.Fatalf("corrupt reads: aware=%d naive=%d", res.Aware.CorruptReads, res.Naive.CorruptReads)
	}
	if res.NaiveAttack.GetAvailability() >= 0.999 {
		t.Fatalf("attack too weak: naive attack-window availability %.4f", res.NaiveAttack.GetAvailability())
	}
	if a, n := res.AwareAttack.GetAvailability(), res.NaiveAttack.GetAvailability(); a <= n {
		t.Fatalf("aware attack-window availability %.4f not above naive %.4f", a, n)
	}
	if res.AwareAttack.P99 >= res.NaiveAttack.P99 {
		t.Fatalf("aware attack-window P99 %v not below naive %v", res.AwareAttack.P99, res.NaiveAttack.P99)
	}
	if a, n := res.Aware.GetAvailability(), res.Naive.GetAvailability(); a <= n {
		t.Fatalf("aware whole-run availability %.4f not above naive %.4f", a, n)
	}
	if res.Aware.FailoverWaves == 0 || res.Naive.WANDrops == 0 {
		t.Fatalf("machinery never engaged: waves=%d drops=%d", res.Aware.FailoverWaves, res.Naive.WANDrops)
	}
	tbl := GeoFleetReport(res).String()
	for _, want := range []string{"attack-aware", "naive", "Attack GET avail"} {
		if !strings.Contains(tbl, want) {
			t.Fatalf("report missing %q:\n%s", want, tbl)
		}
	}
}

// TestGeoFleetDeterministicAcrossWorkers: the full two-placement result —
// every counter, every per-request outcome — is byte-identical whether
// the cells and their fleets run serially or fanned out.
func TestGeoFleetDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers, cellWorkers int) GeoFleetResult {
		spec := DefaultGeoFleetSpec()
		spec.Workers, spec.CellWorkers = workers, cellWorkers
		res, err := GeoFleetRun(spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(1, 1)
	res := run(2, 8)
	if !reflect.DeepEqual(base, res) {
		t.Fatal("geofleet diverged across worker counts")
	}
}

// TestGeoFleetPublishesMetrics: the campaign feeds the shared registry
// from both cells.
func TestGeoFleetPublishesMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	spec := DefaultGeoFleetSpec()
	spec.Requests, spec.Rate, spec.Metrics = 60, 2000, reg
	if _, err := GeoFleetRun(spec); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["experiment.geofleet_cells"] != 2 {
		t.Fatalf("geofleet_cells = %d, want 2", snap.Counters["experiment.geofleet_cells"])
	}
	if snap.Counters["fleet.requests"] != 120 {
		t.Fatalf("fleet.requests = %d, want 120 (both placements)", snap.Counters["fleet.requests"])
	}
}

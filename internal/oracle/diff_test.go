package oracle

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"deepnote/internal/hdd"
	"deepnote/internal/metrics"
	"deepnote/internal/units"
)

// testCells is a compact grid spanning quiet, transition, and collapse
// cells at both diameters.
func testCells(m hdd.Model) []CellSpec {
	inner := m.CapacityBytes - (1 << 22)
	return []CellSpec{
		{Vib: hdd.Quiet(), Op: hdd.OpWrite, Offset: 0, BlockSize: 4096},
		{Vib: hdd.Vibration{Freq: 1200 * units.Hz, Amplitude: 0.17}, Op: hdd.OpWrite, Offset: 0, BlockSize: 4096},
		{Vib: hdd.Vibration{Freq: 1200 * units.Hz, Amplitude: 0.20}, Op: hdd.OpWrite, Offset: inner, BlockSize: 65536},
		{Vib: hdd.Vibration{Freq: 900 * units.Hz, Amplitude: 0.50}, Op: hdd.OpRead, Offset: 0, BlockSize: 4096},
	}
}

// TestDifferCleanTreePasses is the harness's own baseline: predictor and
// simulator agree on a mixed grid within tolerance.
func TestDifferCleanTreePasses(t *testing.T) {
	d := DefaultDiffer()
	d.JobRuntime, d.Workers = time.Second, 4
	rep, err := d.Run(testCells(d.Model))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("clean tree must pass the differential check:\n%s", rep.Table())
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("expected 4 cells, got %d", len(rep.Cells))
	}
}

// TestDifferDeterministicAcrossWorkers pins the seeding discipline: the
// report must be bit-identical at any worker count.
func TestDifferDeterministicAcrossWorkers(t *testing.T) {
	cells := testCells(hdd.Barracuda500())
	run := func(workers int) Report {
		d := DefaultDiffer()
		d.JobRuntime, d.Workers = 500*time.Millisecond, workers
		rep, err := d.Run(cells)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatalf("report differs between 1 and 8 workers:\n%+v\n%+v", a, b)
	}
}

// TestDifferRejectsEmptyGrid guards the degenerate call.
func TestDifferRejectsEmptyGrid(t *testing.T) {
	if _, err := DefaultDiffer().Run(nil); !errors.Is(err, errNoCells) {
		t.Fatalf("empty grid must be rejected, got %v", err)
	}
}

// TestWriteReportRoundTrips checks the CI artifact format.
func TestWriteReportRoundTrips(t *testing.T) {
	d := DefaultDiffer()
	d.JobRuntime = 200 * time.Millisecond
	rep, err := d.Run(testCells(d.Model)[:1])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "selfcheck.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != ReportSchema || len(back.Cells) != 1 {
		t.Fatalf("report did not round-trip: %+v", back)
	}
}

// TestDifferPublishesMetrics checks the observability wiring: a run with a
// registry attached surfaces oracle counters alongside the victim stack's.
func TestDifferPublishesMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	d := DefaultDiffer()
	d.JobRuntime, d.Metrics = 200*time.Millisecond, reg
	if _, err := d.Run(testCells(d.Model)[:2]); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, want := range []string{"oracle.cells", "oracle.failures", "hdd.writes", "fio.ops"} {
		if _, ok := snap.Counters[want]; !ok {
			t.Fatalf("metrics snapshot missing %q; have %v", want, snap.Counters)
		}
	}
}

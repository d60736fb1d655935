package experiment

import (
	"testing"
	"time"

	"deepnote/internal/fio"
	"deepnote/internal/metrics"
	"deepnote/internal/units"
)

// fastSelfCheck is a reduced grid: one quiet band, one collapse band, and
// one transition frequency, both ops, both block sizes, both diameters.
func fastSelfCheck() SelfCheckOptions {
	o := DefaultSelfCheckOptions()
	o.Freqs = []units.Frequency{200 * units.Hz, 650 * units.Hz, 1700 * units.Hz}
	o.Levels = []float64{1}
	o.JobRuntime = 500 * time.Millisecond
	o.Workers = 4
	return o
}

// TestSelfCheckGridShape pins the grid expansion: freqs × levels ×
// patterns × block sizes × offsets, with offsets aligned to block size.
func TestSelfCheckGridShape(t *testing.T) {
	opts := fastSelfCheck()
	model, cells, err := SelfCheckGrid(opts)
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * 1 * 2 * 2 * 2
	if len(cells) != want {
		t.Fatalf("grid has %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Offset%c.BlockSize != 0 {
			t.Fatalf("cell %q offset %d not aligned to block size %d", c.Label, c.Offset, c.BlockSize)
		}
		if c.Offset+c.BlockSize > model.CapacityBytes {
			t.Fatalf("cell %q overruns capacity", c.Label)
		}
	}
}

// TestSelfCheckPassesOnFixedTree is the acceptance gate in miniature: the
// differential check must pass on the fixed tree within tolerance.
func TestSelfCheckPassesOnFixedTree(t *testing.T) {
	rep, err := SelfCheck(fastSelfCheck())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("self-check failed on a clean tree:\n%s", rep.Table())
	}
}

// TestSelfCheckMetricsLayer checks that an instrumented run surfaces the
// oracle alongside the victim-stack layers.
func TestSelfCheckMetricsLayer(t *testing.T) {
	reg := metrics.NewRegistry()
	opts := fastSelfCheck()
	opts.Freqs = []units.Frequency{650 * units.Hz}
	opts.Patterns = []fio.Pattern{fio.SeqWrite}
	opts.BlockSizes = []int64{4096}
	opts.OffsetFracs = []float64{0}
	opts.Metrics = reg
	if _, err := SelfCheck(opts); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, want := range []string{"oracle.cells", "experiment.selfcheck_cells", "hdd.writes"} {
		if _, ok := snap.Counters[want]; !ok {
			t.Fatalf("snapshot missing %q", want)
		}
	}
}

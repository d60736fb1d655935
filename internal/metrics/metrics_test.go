package metrics

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"deepnote/internal/simclock"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Add("hdd.reads", 3)
	r.MaxGauge("hdd.temp", 40)
	r.Observe("hdd.lat", 100)
	r.SetClock(simclock.NewVirtual())
	r.Counter("x").Add(1)
	r.Gauge("x").SetMax(1)
	r.Histogram("x").Observe(1)
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || snap.Schema != SnapshotSchema {
		t.Fatalf("nil snapshot = %+v", snap)
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	r.Add("a.ops", 2)
	r.Add("a.ops", 3)
	if got := r.Counter("a.ops").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	r.MaxGauge("a.peak", 2)
	r.MaxGauge("a.peak", 7)
	r.MaxGauge("a.peak", 4)
	if got := r.Gauge("a.peak").Value(); got != 7 {
		t.Fatalf("gauge = %g, want 7 (max-merge)", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if got := h.count.Load(); got != 1000 {
		t.Fatalf("count = %d", got)
	}
	// Values 1..1000: p50 rank 500 lands in bucket (255,511]; log-bucket
	// quantiles resolve to the bucket's upper bound.
	if got := h.Quantile(0.5); got != 511 {
		t.Fatalf("p50 = %d, want 511", got)
	}
	// p99 rank 990 lands in the last populated bucket (513..1000), whose
	// bound is tightened to the exact max.
	if got := h.Quantile(0.99); got != 1000 {
		t.Fatalf("p99 = %d, want 1000", got)
	}
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("p100 = %d, want exact max 1000", got)
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.Add("b.ops", 1)
		r.Add("a.ops", 2)
		r.MaxGauge("c.peak", 1.5)
		r.Observe("a.lat", 100)
		r.Observe("a.lat", 3)
		return r
	}
	j1, err := json.Marshal(mk().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(mk().Snapshot())
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", j1, j2)
	}
	var round Snapshot
	if err := json.Unmarshal(j1, &round); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if round.Counters["a.ops"] != 2 || round.Histograms["a.lat"].Count != 2 {
		t.Fatalf("round-trip lost data: %+v", round)
	}
}

func TestConcurrentPublishersConverge(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("p.ops", 1)
				r.Observe("p.lat", int64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("p.ops").Value(); got != 8000 {
		t.Fatalf("concurrent adds lost updates: %d", got)
	}
	if got := r.Snapshot().Histograms["p.lat"].Count; got != 8000 {
		t.Fatalf("concurrent observes lost updates: %d", got)
	}
}

func TestVirtualClockStamp(t *testing.T) {
	clk := simclock.NewVirtual()
	r := NewRegistry()
	r.SetClock(clk)
	clk.Sleep(90 * time.Second)
	snap := r.Snapshot()
	if snap.VirtualSeconds != 90 {
		t.Fatalf("virtual_seconds = %g, want 90", snap.VirtualSeconds)
	}
}

func TestLayersAndTable(t *testing.T) {
	r := NewRegistry()
	r.Add("hdd.reads", 10)
	r.Add("hdd.read_errors", 2)
	r.Add("fio.ops", 5)
	r.Add("jfs.commit_failures", 1)
	r.Add("idle.nothing", 0)
	r.Observe("fio.lat_ns", 100)
	snap := r.Snapshot()
	for name, want := range map[string]string{"hdd.reads": "hdd", "fio.lat_ns": "fio", "nodot": "nodot"} {
		if got := Layer(name); got != want {
			t.Fatalf("Layer(%q) = %q, want %q", name, got, want)
		}
	}
	out := snap.LayerTable().String()
	for _, needle := range []string{"hdd", "fio", "jfs", "Errors"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("layer table missing %q:\n%s", needle, out)
		}
	}
}

func TestManifestRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Add("hdd.reads", 1)
	m := NewManifest("sweep", []string{"-scenario", "2"}, 7, 4, r.Snapshot())
	if m.Schema != ManifestSchema || m.GitDescribe == "" || m.GoVersion == "" {
		t.Fatalf("manifest incomplete: %+v", m)
	}
	path := t.TempDir() + "/manifest.json"
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var round Manifest
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round.Command != "sweep" || round.Seed != 7 || round.Workers != 4 ||
		round.Metrics.Counters["hdd.reads"] != 1 {
		t.Fatalf("manifest round-trip mismatch: %+v", round)
	}
}

// TestLatencyQuantilesNearestRank: the integer rank (n·p+99)/100 equals
// the float nearest rank ceil(q·n), clamped to [1, n], for every n up
// to 10⁶, and LatencyQuantiles sorts and picks that rank for every n up
// to 5000.
func TestLatencyQuantilesNearestRank(t *testing.T) {
	if p50, p99, top := LatencyQuantiles(nil); p50 != 0 || p99 != 0 || top != 0 {
		t.Fatalf("empty: %v %v %v", p50, p99, top)
	}
	floatRank := func(n int, q float64) int {
		return min(max(int(math.Ceil(q*float64(n))), 1), n)
	}
	for n := 1; n <= 1_000_000; n++ {
		for _, p := range []int{50, 99} {
			if got, want := nearestRank(n, p), floatRank(n, float64(p)/100); got != want {
				t.Fatalf("n=%d p=%d: rank %d, float rank %d", n, p, got, want)
			}
		}
	}
	const N = 5000
	lat := make([]time.Duration, N)
	for n := 1; n <= N; n++ {
		for i := range lat[:n] {
			lat[i] = time.Duration(n - i) // reversed, so the sort is exercised
		}
		p50, p99, top := LatencyQuantiles(lat[:n])
		want50, want99 := time.Duration(floatRank(n, 0.50)), time.Duration(floatRank(n, 0.99))
		if p50 != want50 || p99 != want99 || top != time.Duration(n) {
			t.Fatalf("n=%d: got (%v, %v, %v), want (%v, %v, %v)", n, p50, p99, top, want50, want99, n)
		}
	}
}

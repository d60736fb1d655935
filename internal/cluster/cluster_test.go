package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"deepnote/internal/metrics"
	"deepnote/internal/netstore"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// testConfig is a 4-of-6 cluster across six containers 2 m apart, one
// drive each, sized to run fast.
func testConfig(workers int) Config {
	return Config{
		Layout:       LineLayout(6, 2*units.Meter),
		DataShards:   4,
		ParityShards: 2,
		Objects:      24,
		ObjectSize:   8 << 10,
		Seed:         Ptr(int64(99)),
		Workers:      workers,
	}
}

func testTraffic() TrafficSpec {
	return TrafficSpec{Requests: 120, Rate: 2000, ReadFraction: Ptr(0.8)}
}

// serveWithSilenced builds the cluster, aims one point-blank speaker at
// each of the first `silenced` containers, keys them on for the whole
// run, and serves the standard workload.
func serveWithSilenced(t *testing.T, silenced, workers int) ServeResult {
	t.Helper()
	cfg := testConfig(workers)
	targets := make([]int, silenced)
	for i := range targets {
		targets[i] = i
	}
	cfg.Layout = cfg.Layout.WithSpeakersAt(sig.NewTone(650*units.Hz), targets...)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(); err != nil {
		t.Fatal(err)
	}
	active := make([]bool, silenced)
	for i := range active {
		active[i] = true
	}
	c.SetSchedule([]ScheduleStep{{At: 0, Active: active}})
	res, err := c.Serve(testTraffic())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterSurvivesUpToParityDomains is the acceptance criterion: a
// k-of-n cluster serves 100% of reads (degraded) with up to n−k = 2
// containers fully silenced, and loses availability only beyond that.
func TestClusterSurvivesUpToParityDomains(t *testing.T) {
	for silenced := 0; silenced <= 3; silenced++ {
		res := serveWithSilenced(t, silenced, 0)
		if res.CorruptReads != 0 {
			t.Fatalf("silenced=%d: %d corrupt reads", silenced, res.CorruptReads)
		}
		switch {
		case silenced <= 2:
			if got := res.GetAvailability(); got != 1 {
				t.Fatalf("silenced=%d: GET availability %.4f, want 1.0 (degraded reads must cover n−k domains)",
					silenced, got)
			}
			if got := res.PutAvailability(); got != 1 {
				t.Fatalf("silenced=%d: PUT availability %.4f, want 1.0", silenced, got)
			}
			if silenced == 0 && res.DegradedReads != 0 {
				t.Fatalf("healthy cluster reported %d degraded reads", res.DegradedReads)
			}
			if silenced > 0 && res.DegradedReads == 0 {
				t.Fatalf("silenced=%d: expected degraded reads, got none", silenced)
			}
			if silenced > 0 && (res.MinPutShards < 4 || res.MinPutShards >= 6) {
				t.Fatalf("silenced=%d: MinPutShards=%d, want in [4,6) (acked but below full redundancy)",
					silenced, res.MinPutShards)
			}
		default: // beyond the parity budget: stripes span all 6 containers
			if got := res.GetAvailability(); got != 0 {
				t.Fatalf("silenced=%d: GET availability %.4f, want 0 (loss must exceed parity budget)",
					silenced, got)
			}
			if got := res.PutAvailability(); got != 0 {
				t.Fatalf("silenced=%d: PUT availability %.4f, want 0", silenced, got)
			}
		}
	}
}

// TestClusterHomeShardChecksum is the one integrity contract: a home
// shard whose bytes no longer match its stripe fails its GET op like any
// shard error, so reads of that object fall back to parity and are served
// degraded — never served corrupt.
func TestClusterHomeShardChecksum(t *testing.T) {
	c, err := New(testConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(); err != nil {
		t.Fatal(err)
	}
	// Overwrite object 0's shard 0 with netstore's fixed pattern, which is
	// not the stripe.
	if resp := c.drives.Stacks[c.shardDrive(0, 0)].Server.Handle(netstore.Put, 0); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	res, err := c.Serve(TrafficSpec{Requests: 200, Rate: 2000, ReadFraction: Ptr(1.0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gets != 200 || res.GetOK != res.Gets {
		t.Fatalf("served %d of %d GETs, want all 200", res.GetOK, res.Gets)
	}
	if res.CorruptReads != 0 {
		t.Fatalf("%d corrupt reads, want 0", res.CorruptReads)
	}
	if res.ShardReadErrors == 0 || res.DegradedReads == 0 {
		t.Fatalf("mismatching shard was served: %d shard read errors, %d degraded reads",
			res.ShardReadErrors, res.DegradedReads)
	}
}

// TestClusterTailLatencyRisesWhenDegraded: serving from parity is slower
// — the attack is visible in the tail before availability breaks.
func TestClusterTailLatencyRisesWhenDegraded(t *testing.T) {
	healthy := serveWithSilenced(t, 0, 0)
	degraded := serveWithSilenced(t, 2, 0)
	if degraded.P99 <= healthy.P99 {
		t.Fatalf("degraded P99 %v not above healthy P99 %v", degraded.P99, healthy.P99)
	}
	if healthy.GoodputMBps <= 0 {
		t.Fatalf("healthy goodput %.3f MB/s, want > 0", healthy.GoodputMBps)
	}
}

// TestClusterReadRepairRuns: degraded reads trigger background repair
// writes for the shards they observed as lost.
func TestClusterReadRepairRuns(t *testing.T) {
	res := serveWithSilenced(t, 1, 0)
	if res.RepairWrites == 0 {
		t.Fatal("degraded run scheduled no read-repair writes")
	}
	if res.RepairWrites < res.RepairFailures {
		t.Fatalf("repair accounting inconsistent: %d writes < %d failures", res.RepairWrites, res.RepairFailures)
	}
}

// TestClusterServeDeterministicAcrossWorkers: byte-identical results and
// metrics snapshots at -workers 1/2/8, the PR 2 convention.
func TestClusterServeDeterministicAcrossWorkers(t *testing.T) {
	var base ServeResult
	var baseSnap []byte
	for i, workers := range []int{1, 2, 8} {
		cfg := testConfig(workers)
		cfg.Layout = cfg.Layout.WithSpeakersAt(sig.NewTone(650*units.Hz), 0, 1)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Preload(); err != nil {
			t.Fatal(err)
		}
		c.SetSchedule([]ScheduleStep{{At: 0, Active: []bool{true, true}}})
		res, err := c.Serve(testTraffic())
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.NewRegistry()
		c.PublishMetrics(reg)
		snap, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base, baseSnap = res, snap
			continue
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("workers=%d: ServeResult diverged:\n%+v\nvs workers=1:\n%+v", workers, res, base)
		}
		if !bytes.Equal(snap, baseSnap) {
			t.Fatalf("workers=%d: metrics snapshot diverged from workers=1", workers)
		}
	}
}

// TestClusterResultsIdenticalWithMetricsOnOff: publishing is pure
// observation.
func TestClusterResultsIdenticalWithMetricsOnOff(t *testing.T) {
	run := func(publish bool) ServeResult {
		cfg := testConfig(0)
		cfg.Layout = cfg.Layout.WithSpeakersAt(sig.NewTone(650*units.Hz), 0)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Preload(); err != nil {
			t.Fatal(err)
		}
		c.SetSchedule([]ScheduleStep{{At: 0, Active: []bool{true}}})
		res, err := c.Serve(testTraffic())
		if err != nil {
			t.Fatal(err)
		}
		if publish {
			c.PublishMetrics(metrics.NewRegistry())
		}
		return res
	}
	if bare, observed := run(false), run(true); !reflect.DeepEqual(bare, observed) {
		t.Fatalf("metrics publication changed results:\n%+v\nvs\n%+v", bare, observed)
	}
}

// TestClusterLayerCoverage: one serve populates every layer of the
// stack in the registry.
func TestClusterLayerCoverage(t *testing.T) {
	cfg := testConfig(0)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Preload(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Serve(testTraffic()); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	c.PublishMetrics(reg)
	snap := reg.Snapshot()
	live := map[string]bool{} // layers with a non-zero counter
	for name, v := range snap.Counters {
		if v != 0 {
			live[metrics.Layer(name)] = true
		}
	}
	for _, layer := range []string{"cluster", "hdd", "blockdev", "netstore"} {
		if !live[layer] {
			t.Fatalf("layer %q missing from snapshot (have %v)", layer, live)
		}
	}
}

// TestClusterRejectsTooFewContainers: stripes must span distinct failure
// domains.
func TestClusterRejectsTooFewContainers(t *testing.T) {
	cfg := testConfig(0)
	cfg.Layout = LineLayout(5, 2*units.Meter) // n = 6 > 5 containers
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted fewer containers than shards")
	}
}

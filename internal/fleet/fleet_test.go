package fleet

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"deepnote/internal/cluster"
	"deepnote/internal/metrics"
	"deepnote/internal/netstore"
	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// testSites builds three 8-container facilities; if attacked is
// non-empty, site 0 gets a point-blank 650 Hz speaker at each listed
// container (the servo-killing idiom from the cluster tests).
func testSites(attacked ...int) []SiteSpec {
	mk := func(name string) SiteSpec {
		return SiteSpec{Name: name, Layout: cluster.LineLayout(8, 2*units.Meter)}
	}
	sites := []SiteSpec{mk("pacific"), mk("atlantic"), mk("baltic")}
	if len(attacked) > 0 {
		sites[0].Layout = sites[0].Layout.WithSpeakersAt(sig.NewTone(650*units.Hz), attacked...)
	}
	return sites
}

func testFleetConfig(p Placement, workers int, attacked ...int) Config {
	return Config{
		Sites:      testSites(attacked...),
		Objects:    48,
		ObjectSize: 8 << 10,
		Placement:  p,
		Seed:       cluster.Ptr(int64(42)),
		Workers:    workers,
	}
}

func buildFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Preload(); err != nil {
		t.Fatal(err)
	}
	return f
}

const (
	atkStart = 500 * time.Millisecond
	atkEnd   = 2000 * time.Millisecond
)

// attackConfig is the standard facility-attack campaign geometry: four
// 8-container sites, 4+4 coding, and a blast radius of five contiguous
// containers on site 0 — wide enough to erase any naive stripe (5 lost
// > 4 parity) while an attack-aware site allotment of at most two
// strided shards loses at most two.
func attackConfig(p Placement, workers int) Config {
	mk := func(name string, attacked bool) SiteSpec {
		s := SiteSpec{Name: name, Layout: cluster.LineLayout(8, 2*units.Meter)}
		if attacked {
			s.Layout = s.Layout.WithSpeakersAt(sig.NewTone(650*units.Hz), 0, 1, 2, 3, 4)
		}
		return s
	}
	return Config{
		Sites: []SiteSpec{
			mk("pacific", true), mk("atlantic", false),
			mk("baltic", false), mk("coral", false),
		},
		DataShards:   4,
		ParityShards: 4,
		Objects:      48,
		ObjectSize:   8 << 10,
		Placement:    p,
		Seed:         cluster.Ptr(int64(42)),
		Workers:      workers,
		// Blasted drives fail slowly (the servo grinds before it gives
		// up), so cross-site failover needs a deadline budget that
		// outlasts a couple of grinding waves.
		Resilience: Resilience{Deadline: 2 * time.Second},
		WAN: WANConfig{Faults: []Fault{
			// Concurrent WAN trouble: the attacked site's link to its
			// nearest peer flaps, and an unrelated pair browns out.
			{Kind: LinkFlap, A: 0, B: 1, Start: atkStart, Duration: atkEnd - atkStart},
			{Kind: Brownout, A: 2, B: 3, Start: atkStart, Duration: atkEnd - atkStart, Factor: 4},
		}},
	}
}

// serveAttacked runs the campaign: speakers keyed on for
// [atkStart, atkEnd), WAN faults over the same window.
func serveAttacked(t *testing.T, p Placement, workers int) Result {
	t.Helper()
	f := buildFleet(t, attackConfig(p, workers))
	if err := f.SetAttack(0, []cluster.ScheduleStep{
		{At: atkStart, Active: []bool{true, true, true, true, true}},
		{At: atkEnd, Active: nil},
	}); err != nil {
		t.Fatal(err)
	}
	// 300/s keeps the 32 drives busy without runaway queueing, so the
	// deadline budget is spent on failover — not on the backlog.
	res, err := f.Serve(TrafficSpec{Requests: 800, Rate: 300})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFleetServesCleanWithoutFaults(t *testing.T) {
	f := buildFleet(t, testFleetConfig(PlacementAttackAware, 0))
	res, err := f.Serve(TrafficSpec{Requests: 400, Rate: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if res.GetFailures != 0 || res.PutFailures != 0 {
		t.Fatalf("clean run failed requests: gets=%d puts=%d", res.GetFailures, res.PutFailures)
	}
	if res.CorruptReads != 0 || res.ChecksumMisses != 0 {
		t.Fatalf("clean run corrupted: corrupt=%d misses=%d", res.CorruptReads, res.ChecksumMisses)
	}
	if res.GetAvailability() != 1 || res.PutAvailability() != 1 {
		t.Fatalf("clean availability GET %.4f PUT %.4f, want 1", res.GetAvailability(), res.PutAvailability())
	}
	// Attack-aware placement spreads shards across sites, so a healthy
	// run still crosses the WAN constantly.
	if res.CrossSiteOps == 0 {
		t.Fatal("no cross-site ops despite cross-site placement")
	}
	if res.Puts > 0 && res.MinPutShards != f.coder.TotalShards() {
		t.Fatalf("clean PUT lost shards: min durable %d, want %d", res.MinPutShards, f.coder.TotalShards())
	}
	if res.BreakerOpens != 0 || res.WANDrops != 0 || res.ShedRequests != 0 {
		t.Fatalf("clean run tripped fault machinery: opens=%d drops=%d shed=%d",
			res.BreakerOpens, res.WANDrops, res.ShedRequests)
	}
	if res.P99 <= 0 || res.Span <= 0 || res.GoodputMBps <= 0 {
		t.Fatalf("degenerate throughput stats: p99=%v span=%v goodput=%.2f",
			res.P99, res.Span, res.GoodputMBps)
	}
}

// TestFleetDeterministicAcrossWorkers is the tier's core contract: the
// full ledger of the compound attack+WAN-fault campaign — every counter,
// every per-request outcome — must be byte-identical at any fan-out.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	base := serveAttacked(t, PlacementAttackAware, 1)
	for _, w := range []int{2, 8} {
		if res := serveAttacked(t, PlacementAttackAware, w); !reflect.DeepEqual(base, res) {
			t.Fatalf("workers=%d diverged from workers=1", w)
		}
	}
}

// TestFleetSeedZeroReproduces pins the zero-vs-unset contract on the
// fleet's seed pointers: an explicit zero seed is honored and
// reproduces exactly.
func TestFleetSeedZeroReproduces(t *testing.T) {
	run := func() Result {
		cfg := testFleetConfig(PlacementAttackAware, 0)
		cfg.Seed = cluster.Ptr(int64(0))
		f := buildFleet(t, cfg)
		res, err := f.Serve(TrafficSpec{Requests: 200, Rate: 2000, Seed: cluster.Ptr(int64(0))})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("explicit zero seeds did not reproduce")
	}
}

func TestFleetWorkloadEndpoints(t *testing.T) {
	f := buildFleet(t, testFleetConfig(PlacementAttackAware, 0))
	res, err := f.Serve(TrafficSpec{Requests: 60, Rate: 2000, ReadFraction: cluster.Ptr(0.0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gets != 0 || res.Puts != 60 {
		t.Fatalf("write-only workload: gets=%d puts=%d", res.Gets, res.Puts)
	}
	res, err = f.Serve(TrafficSpec{Requests: 60, Rate: 2000, ReadFraction: cluster.Ptr(1.0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Puts != 0 || res.Gets != 60 {
		t.Fatalf("read-only workload: gets=%d puts=%d", res.Gets, res.Puts)
	}
	for _, rf := range []float64{-0.1, 1.5, math.NaN()} {
		if _, err := f.Serve(TrafficSpec{Requests: 10, ReadFraction: cluster.Ptr(rf)}); err == nil {
			t.Fatalf("out-of-range ReadFraction %v accepted", rf)
		}
	}
}

func TestFleetConfigValidation(t *testing.T) {
	if _, err := New(Config{Sites: testSites()[:1]}); err == nil {
		t.Fatal("single-site fleet accepted")
	}
	small := Config{Sites: []SiteSpec{
		{Name: "a", Layout: cluster.LineLayout(4, 2*units.Meter)},
		{Name: "b", Layout: cluster.LineLayout(4, 2*units.Meter)},
	}, Placement: PlacementNaive}
	if _, err := New(small); err == nil {
		t.Fatal("naive placement with 4-container sites accepted (needs n=6)")
	}
	wide := testFleetConfig(PlacementAttackAware, 0)
	wide.DataShards, wide.ParityShards = 30, 6
	if _, err := New(wide); err == nil {
		t.Fatal("36-shard stripe accepted past the 32-shard mask limit")
	}
	twoTone := testFleetConfig(PlacementAttackAware, 0, 0)
	twoTone.Sites[0].Layout = twoTone.Sites[0].Layout.WithSpeakersAt(sig.NewTone(650*units.Hz), 0, 1)
	twoTone.Sites[0].Layout.Speakers[1].Tone = sig.NewTone(900 * units.Hz)
	if _, err := New(twoTone); err == nil || !strings.Contains(err.Error(), "one frequency") {
		t.Fatalf("site with speakers at 650 and 900 Hz: New = %v, want a one-frequency rejection", err)
	}
	f, err := New(testFleetConfig(PlacementAttackAware, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Serve(TrafficSpec{Requests: 10}); err == nil {
		t.Fatal("Serve before Preload accepted")
	}
	if err := f.SetAttack(3, nil); err == nil {
		t.Fatal("out-of-range attack site accepted")
	}
}

func TestFleetPublishMetrics(t *testing.T) {
	f := buildFleet(t, testFleetConfig(PlacementAttackAware, 0))
	if _, err := f.Serve(TrafficSpec{Requests: 100, Rate: 2000}); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	f.PublishMetrics(reg)
	snap := reg.Snapshot()
	if snap.Counters["fleet.requests"] != 100 {
		t.Fatalf("fleet.requests = %d, want 100", snap.Counters["fleet.requests"])
	}
	for _, key := range []string{
		"fleet.gets", "fleet.puts", "fleet.cross_site_ops",
		"fleet.wan_drops", "fleet.breaker_opens", "fleet.shed_requests",
		"fleet.corrupt_reads", "fleet.bytes_served",
	} {
		if _, ok := snap.Counters[key]; !ok {
			t.Fatalf("key %s missing from snapshot", key)
		}
	}
	if snap.Counters["netstore.requests"] == 0 {
		t.Fatal("node-level netstore counters missing")
	}
	f.PublishMetrics(nil) // must not panic
}

// TestFleetShardChecksum: a node holding bytes other than its shard
// fails the GET op as a checksum miss, and the read fails over to another
// source instead of serving the mismatch.
func TestFleetShardChecksum(t *testing.T) {
	f := buildFleet(t, testFleetConfig(PlacementAttackAware, 0))
	// Overwrite object 0's shard 0 with netstore's fixed pattern, which is
	// not the stripe.
	if resp := f.drives.Stacks[f.shardNode(0, 0)].Server.Handle(netstore.Put, 0); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	// A light load keeps every failover wave inside its deadline budget.
	res, err := f.Serve(TrafficSpec{Requests: 200, Rate: 200, ReadFraction: cluster.Ptr(1.0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.GetOK != res.Gets {
		t.Fatalf("served %d of %d GETs, want all", res.GetOK, res.Gets)
	}
	if res.ChecksumMisses == 0 || res.DegradedReads == 0 {
		t.Fatalf("mismatching shard was served: %d checksum misses, %d degraded reads",
			res.ChecksumMisses, res.DegradedReads)
	}
	if res.CorruptReads != 0 {
		t.Fatalf("%d corrupt reads, want 0", res.CorruptReads)
	}
}

// serveAllocSlack bounds how many more allocations a Serve of 4× the
// requests may make than one of 1× on a fresh healthy fleet. A slice
// that grows by append instead of being sized once makes at least two
// more at 4×, one per doubling (a large slice grows by 1.25× and makes
// about six).
const serveAllocSlack = 1

// TestServeAllocsFlat is the gateway's allocation budget. The request
// arena, each epoch's op arena and sort order, every node queue's run
// and heap, and the latency buffers are each sized once from counts the
// engine already has, so on a fresh healthy fleet a Serve at 4× the
// requests allocates as many times as one at 1×, within serveAllocSlack.
// Each count is the least of three fresh fleets, since the runtime
// itself now and then allocates while a Serve runs (a new goroutine, a
// pool refilled after a GC).
func TestServeAllocsFlat(t *testing.T) {
	mallocs := func(requests int) uint64 {
		least := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			f := buildFleet(t, testFleetConfig(PlacementNaive, 1))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := f.Serve(TrafficSpec{Requests: requests, Rate: 300})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.GetOK != res.Gets || res.PutOK != res.Puts || res.DegradedReads+res.DegradedWrites != 0 {
				t.Fatalf("healthy fleet served %+v", res)
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	one, four := mallocs(2000), mallocs(8000)
	if four > one+serveAllocSlack {
		t.Fatalf("Serve made %d allocations at 4× the requests and %d at 1×, want at most %d more",
			four, one, serveAllocSlack)
	}
}

package fleet

import (
	"testing"

	"deepnote/internal/cluster"
)

// BenchmarkServe measures the fleet gateway end to end on the attack
// campaign's four-site cell: a five-container blast at site 0 keyed on
// for the whole run, plus the campaign's link flap and brownout, so ops
// travel the failover, hedging and breaker paths. Reported as ns/op per
// client request.
func BenchmarkServe(b *testing.B) {
	f, err := New(attackConfig(PlacementNaive, 1))
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Preload(); err != nil {
		b.Fatal(err)
	}
	if err := f.SetAttack(0, []cluster.ScheduleStep{{At: 0, Active: []bool{true, true, true, true, true}}}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	res, err := f.Serve(TrafficSpec{Requests: b.N, Rate: 300})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.ShardReads+res.ShardWrites)/float64(b.N), "shardops/req")
}

// BenchmarkWANDelays measures one WAN delay draw per op — the per-op
// jitter hash, the brownout factor and the serialization delay — on the
// attack campaign's browned-out link, alternating PUTs and GETs.
func BenchmarkWANDelays(b *testing.B) {
	cfg := attackConfig(PlacementNaive, 1)
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	brown := cfg.WAN.Faults[1]
	if brown.Kind != Brownout {
		b.Fatalf("fault 1 is %s, want a brownout", brown.Kind)
	}
	li, at := f.linkIdx(brown.A, brown.B), int64(brown.Start)
	if f.linkFactor(li, at) == 1 {
		b.Fatal("the link is not browned out")
	}
	var sum int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, ret := f.wanDelays(li, uint64(i), at, i&1 == 0)
		sum += out + ret
	}
	if sum <= 0 {
		b.Fatal("no delay drawn")
	}
}

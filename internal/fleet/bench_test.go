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

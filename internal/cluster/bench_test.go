package cluster

import (
	"testing"

	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// BenchmarkServe measures the traffic engine's shard-op throughput on a
// healthy 4-of-6 cluster: the number the continuous-benchmarking gate
// tracks across PRs. Reported as ns/op per *client request*; shard ops
// per request average ReadFraction·k + (1−ReadFraction)·n.
func BenchmarkServe(b *testing.B) {
	cfg := testConfig(0)
	cfg.Objects = 64
	cfg.ObjectSize = 16 << 10
	cfg.Layout = cfg.Layout.WithSpeakersAt(sig.NewTone(650*units.Hz), 0)
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Preload(); err != nil {
		b.Fatal(err)
	}
	c.SetSchedule([]ScheduleStep{{At: 0, Active: []bool{true}}})
	spec := testTraffic()
	spec.Requests = b.N
	spec.Rate = 1e6
	b.ReportAllocs()
	b.ResetTimer()
	res, err := c.Serve(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.ShardReads+res.ShardWrites), "shardops")
}

package sched

import (
	"math/rand"
	"testing"
)

// BenchmarkQueue measures one push and one pop per op at a steady depth
// of 1024 events: pushed in time order (the sorted run's O(1) path), out
// of order (the heap), and a popped event rescheduled up to 1 ms later
// from a random start, as the bench harness's sched probe does.
func BenchmarkQueue(b *testing.B) {
	const depth = 1024
	ordered := func(_ *rand.Rand, tick int64) int64 { return tick }
	cases := []struct {
		name  string
		start func(rng *rand.Rand, tick int64) int64
		next  func(rng *rand.Rand, popped Item, tick int64) int64
	}{
		{"in-order", ordered, func(_ *rand.Rand, _ Item, tick int64) int64 { return tick }},
		{"out-of-order", ordered, func(rng *rand.Rand, _ Item, tick int64) int64 { return tick - rng.Int63n(depth) }},
		{"reschedule", func(rng *rand.Rand, _ int64) int64 { return rng.Int63n(1e9) },
			func(_ *rand.Rand, popped Item, _ int64) int64 { return popped.At + int64(Hash64(1, popped.Seq)%1e6) }},
	}
	for _, bc := range cases {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var q Queue
			q.Grow(depth)
			tick := int64(0)
			for ; tick < depth; tick++ {
				q.Push(bc.start(rng, tick), uint64(tick))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, _ := q.Pop()
				q.Push(bc.next(rng, it, tick), it.ID)
				tick++
			}
		})
	}
}

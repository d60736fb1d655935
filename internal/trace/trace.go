// Package trace records throughput time series against the virtual clock
// in fixed-width buckets. Experiments use it to produce attack timelines —
// the paper's §3 first attacker objective is a *controlled* throughput
// loss for a chosen duration, which is inherently a statement about a time
// series.
package trace

import (
	"time"

	"deepnote/internal/simclock"
)

// Point is one sample: elapsed virtual time since the meter started, and
// a value.
type Point struct {
	T time.Duration
	V float64
}

// Meter aggregates byte counts into fixed-width throughput buckets (MB/s
// per bucket of virtual time).
type Meter struct {
	clock  *simclock.Virtual
	origin time.Time
	width  time.Duration
	counts map[int]int64
}

// NewMeter starts a meter with the given bucket width.
func NewMeter(clock *simclock.Virtual, bucket time.Duration) *Meter {
	if bucket <= 0 {
		bucket = time.Second
	}
	return &Meter{clock: clock, origin: clock.Now(), width: bucket, counts: make(map[int]int64)}
}

// Add charges n bytes to the bucket covering the current virtual instant.
func (m *Meter) Add(n int64) {
	idx := int(m.clock.Now().Sub(m.origin) / m.width)
	m.counts[idx] += n
}

// lastBucket returns the highest bucket index covered by the meter: the
// last bucket touched by Add, extended through "now" so trailing silence
// is visible too. Returns -1 when nothing is covered yet.
func (m *Meter) lastBucket() int {
	last := -1
	for idx := range m.counts {
		if idx > last {
			last = idx
		}
	}
	if nowIdx := int(m.clock.Now().Sub(m.origin) / m.width); nowIdx-1 > last {
		last = nowIdx - 1
	}
	return last
}

// Buckets returns throughput points (bucket midpoint, MB/s) for every
// bucket from zero through the last bucket touched, including empty ones —
// an outage must show up as zeros, not be elided.
func (m *Meter) Buckets() []Point {
	last := m.lastBucket()
	out := make([]Point, 0, last+1)
	secs := m.width.Seconds()
	for i := 0; i <= last; i++ {
		out = append(out, Point{
			T: time.Duration(i)*m.width + m.width/2,
			V: float64(m.counts[i]) / 1e6 / secs,
		})
	}
	return out
}

// MeanMBps returns the mean throughput over the window [from, to), using
// overlap semantics: every bucket whose interval [i·w, (i+1)·w) overlaps
// the window contributes with equal weight. A window aligned to bucket
// edges therefore averages exactly the buckets inside it, and a window
// ending mid-bucket includes that partial bucket rather than silently
// dropping it. (The previous midpoint test excluded a boundary bucket
// whenever the window edge landed on or before its midpoint.)
func (m *Meter) MeanMBps(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	last := m.lastBucket()
	lo := int(from / m.width)
	if from < 0 {
		lo = 0
	}
	hi := int((to + m.width - 1) / m.width) // ceil(to/w)
	hi--
	if lo < 0 {
		lo = 0
	}
	if hi > last {
		hi = last
	}
	if hi < lo {
		return 0
	}
	secs := m.width.Seconds()
	var sum float64
	for i := lo; i <= hi; i++ {
		sum += float64(m.counts[i]) / 1e6 / secs
	}
	return sum / float64(hi-lo+1)
}

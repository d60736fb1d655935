// Package metrics is the simulation's observability spine: a registry of
// named counters, gauges, and fixed-log-bucket histograms that every layer
// (hdd, blockdev, fio, jfs, kvdb, osmodel, attack, experiment) publishes
// into, plus run-manifest and snapshot writers that persist the final state
// as schema-stable JSON.
//
// Three properties make the registry safe to thread through the parallel
// experiment engine:
//
//   - Nil-safety: every method is a no-op on a nil *Registry (and on the
//     nil handles a nil registry returns), so instrumented code never
//     branches on "is observability enabled".
//   - Determinism: the registry never touches the virtual clock or any
//     simulation RNG, so a run's results are bit-identical with metrics on
//     or off.
//   - Commutativity: counters merge by sum, gauges by max, histograms by
//     per-bucket sum — all order-independent — so a grid fanned over
//     internal/parallel workers produces the same snapshot at any worker
//     count.
//
// A grid's workers all publish into one registry, so a registry is, with
// internal/parallel's pool state, one of the two values a second
// goroutine can reach. Unlike the single-owner simulation stacks
// (simclock, hdd, blockdev, netstore), it keeps its atomics and locks.
package metrics

import (
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deepnote/internal/simclock"
)

// Counter is a monotonically increasing sum.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current sum (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-known value with max-merge semantics: concurrent or
// repeated publications keep the largest value seen, which is the only
// order-independent choice when parallel workers publish the same name.
type Gauge struct {
	mu  sync.Mutex
	set bool
	v   float64
}

// SetMax raises the gauge to v if v is larger than the current value (or
// the gauge is unset). Safe on a nil receiver.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if !g.set || v > g.v {
		g.v, g.set = v, true
	}
	g.mu.Unlock()
}

// Value returns the gauge value (0 on a nil or unset receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// histBuckets is the fixed log-2 bucket count: bucket 0 holds values ≤ 0,
// bucket i (1..64) holds values v with bits.Len64(v) == i, i.e.
// v ∈ [2^(i-1), 2^i). Every histogram shares this layout, which is what
// makes merges a per-bucket sum.
const histBuckets = 65

// Histogram is a fixed log-bucket distribution of int64 observations
// (typically latencies in nanoseconds).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return int64(^uint64(0) >> 1)
	}
	return (int64(1) << i) - 1
}

// Observe records one value. Safe on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// LatencyQuantiles sorts lat in place and returns its nearest-rank P50
// and P99 — the element of rank ceil(p·n/100) — and its maximum; all
// zero when lat is empty.
func LatencyQuantiles(lat []time.Duration) (p50, p99, max time.Duration) {
	n := len(lat)
	if n == 0 {
		return 0, 0, 0
	}
	slices.Sort(lat)
	return lat[nearestRank(n, 50)-1], lat[nearestRank(n, 99)-1], lat[n-1]
}

// nearestRank is ceil(p·n/100) for a percentile p in [1, 100] and n ≥ 1,
// in integer arithmetic: a float rank can round the wrong way.
func nearestRank(n, p int) int { return (n*p + 99) / 100 }

// Quantile returns the nearest-rank quantile as the upper bound of the
// log bucket containing that rank (the true max for q covering the last
// observation). q outside (0, 1] is clamped.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		q = 1 / float64(n)
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q*float64(n) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if cum == n {
				// The rank falls in the last populated bucket; the
				// tracked max is a tighter bound than 2^i - 1.
				return h.max.Load()
			}
			return bucketUpper(i)
		}
	}
	return h.max.Load()
}

// Registry is a named collection of counters, gauges, and histograms.
// A nil *Registry is a valid, do-nothing registry: all methods no-op, so
// instrumented layers publish unconditionally.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	clock    *simclock.Virtual
	origin   time.Time
	hasClock bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// SetClock attaches a virtual clock; snapshots taken afterwards stamp the
// virtual time elapsed since attachment. Safe on a nil receiver. The
// clock has one owner and no lock of its own, so only its owner may call
// SetClock or Snapshot.
func (r *Registry) SetClock(c *simclock.Virtual) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.clock, r.origin, r.hasClock = c, c.Now(), true
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use. Returns nil
// (a valid no-op counter) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. Returns
// nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Add is shorthand for Counter(name).Add(n).
func (r *Registry) Add(name string, n int64) { r.Counter(name).Add(n) }

// MaxGauge is shorthand for Gauge(name).SetMax(v).
func (r *Registry) MaxGauge(name string, v float64) { r.Gauge(name).SetMax(v) }

// Observe is shorthand for Histogram(name).Observe(v).
func (r *Registry) Observe(name string, v int64) { r.Histogram(name).Observe(v) }

// Snapshot captures the registry's current state in a deterministic,
// schema-stable form: map keys marshal sorted, histogram buckets list only
// populated buckets in ascending order.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Schema:     SnapshotSchema,
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	if r.hasClock {
		snap.VirtualSeconds = r.clock.Now().Sub(r.origin).Seconds()
	}
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()

	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range hists {
		hs := HistogramSnapshot{
			Count: h.count.Load(),
			Sum:   h.sum.Load(),
			Max:   h.max.Load(),
			P50:   h.Quantile(0.50),
			P99:   h.Quantile(0.99),
		}
		if hs.Count > 0 {
			hs.Mean = float64(hs.Sum) / float64(hs.Count)
		}
		for i := 0; i < histBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				hs.Buckets = append(hs.Buckets, HistogramBucket{LE: bucketUpper(i), Count: n})
			}
		}
		sort.Slice(hs.Buckets, func(a, b int) bool { return hs.Buckets[a].LE < hs.Buckets[b].LE })
		snap.Histograms[name] = hs
	}
	return snap
}

// Package sched is the discrete-event core of the facility-scale
// simulation: a deterministic event queue, in int64 nanoseconds from a
// caller's origin, that pops in-order pushes in O(1) and orders the rest
// in a binary heap, plus the per-event hash the engines draw their noise
// from.
//
// # Event model
//
// The simulator is a conservative, epoch-synchronized discrete-event
// system. Every stateful resource (a drive stack) consumes its own event
// stream in (time, sequence) order from a Queue; events never migrate
// between resources, so resources can be dispatched concurrently with
// results that are byte-identical at any worker count. Cross-resource
// causality (a degraded read spawning parity fetches on other drives)
// is resolved at epoch boundaries: events spawned while draining epoch N
// are enqueued for epoch N+1. Within a resource, ties in event time are
// broken by the queue's monotone sequence number — the global issue
// order — so an arrival schedule that collides at nanosecond granularity
// still dispatches deterministically. The drive substrate in
// internal/cluster (cluster.Drives) owns the drain loop that advances
// each drive's clock to its events.
package sched

import "slices"

// Item is one queued event: a time, a deterministic tie-break sequence,
// and an opaque caller payload. Items are plain data (no closures) so a
// warm queue pushes and pops without allocating.
type Item struct {
	// At is the event time in nanoseconds relative to the caller's
	// origin.
	At int64
	// Seq is the queue-assigned issue number; events with equal At
	// dispatch in Seq order.
	Seq uint64
	// ID is the caller's payload, typically a packed operation
	// descriptor.
	ID uint64
}

// before reports whether a sorts ahead of b: earlier time first, issue
// order breaking ties.
func (a Item) before(b Item) bool {
	return a.At < b.At || (a.At == b.At && a.Seq < b.Seq)
}

// Queue is a deterministic event queue that pops in (At, Seq) order. The
// zero value is ready to use. Not safe for concurrent use: in the epoch
// model each resource owns exactly one queue.
//
// Event streams are mostly issued in time order (a traffic epoch pushes
// arrivals as they come), so the queue keeps two parts: a sorted run,
// which takes every push that sorts at or after the run's tail and pops
// from its front in O(1), and a binary min-heap, which takes every other
// push. Pop takes the earlier of the two heads, so the pop order
// is exactly (At, Seq) whatever the push order.
type Queue struct {
	// run[head:] holds the sorted run; run[:head] is popped space that
	// Push reclaims once it outweighs the live part.
	run  []Item
	head int
	heap []Item
	seq  uint64
}

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.run) - q.head + len(q.heap) }

// Grow ensures capacity for n additional events without reallocation,
// whichever part of the queue they land in, so bulk issue (a traffic
// epoch) and the dispatch loop stay allocation-free.
func (q *Queue) Grow(n int) {
	q.run = slices.Grow(q.run, n)
	q.heap = slices.Grow(q.heap, n)
}

// Push enqueues an event at time at (ns) carrying id, and returns the
// assigned sequence number. A push at or after the sorted run's latest
// time (or into an empty run) costs amortized O(1); any other push costs
// O(log n).
func (q *Queue) Push(at int64, id uint64) uint64 {
	seq := q.seq
	q.seq++
	it := Item{At: at, Seq: seq, ID: id}
	// seq exceeds every queued Seq, so at >= tail.At means it sorts
	// after the tail.
	if n := len(q.run); n == 0 || at >= q.run[n-1].At {
		if n == cap(q.run) && q.head > 0 && q.head >= n-q.head {
			q.run = q.run[:copy(q.run, q.run[q.head:])]
			q.head = 0
		}
		q.run = append(q.run, it)
		return seq
	}
	q.heap = append(q.heap, it)
	q.siftUp(len(q.heap) - 1)
	return seq
}

// runFirst reports whether the next event is the run's head: false when
// the run is empty or the heap's head sorts first.
func (q *Queue) runFirst() bool {
	return q.head < len(q.run) && (len(q.heap) == 0 || q.run[q.head].before(q.heap[0]))
}

// Pop removes and returns the next event in (At, Seq) order; ok is
// false when the queue is empty.
func (q *Queue) Pop() (Item, bool) {
	if q.runFirst() {
		top := q.run[q.head]
		if q.head++; q.head == len(q.run) {
			q.run, q.head = q.run[:0], 0
		}
		return top, true
	}
	n := len(q.heap)
	if n == 0 {
		return Item{}, false
	}
	top := q.heap[0]
	q.heap[0] = q.heap[n-1]
	q.heap = q.heap[:n-1]
	if len(q.heap) > 1 {
		q.siftDown(0)
	}
	return top, true
}

func (q *Queue) siftUp(i int) {
	h := q.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *Queue) siftDown(i int) {
	h := q.heap
	n := len(h)
	for {
		least := i
		if l := 2*i + 1; l < n && h[l].before(h[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Hash64 is the deterministic per-event hash: a splitmix64 finalization
// of seed ^ (event · odd-constant). Engines that need a random-looking
// draw per scheduled event (WAN jitter, per-op noise) hash the owning
// resource's seed with the event's global issue sequence instead of
// consuming an ordered RNG stream, so the draw depends only on (seed,
// event) — never on worker interleaving or dispatch order.
func Hash64(seed, event uint64) uint64 {
	z := seed ^ (event * 0x9e3779b97f4a7c15)
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashUnit maps Hash64's draw onto [0, 1) with 53-bit resolution.
func HashUnit(seed, event uint64) float64 {
	return float64(Hash64(seed, event)>>11) / (1 << 53)
}

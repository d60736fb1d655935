package sched

import (
	"math/rand"
	"testing"
)

// TestQueueOrdersByTimeThenSeq: events come out in time order, with the
// issue sequence breaking ties.
func TestQueueOrdersByTimeThenSeq(t *testing.T) {
	var q Queue
	q.Push(30, 0)
	q.Push(10, 1)
	q.Push(20, 2)
	q.Push(10, 3) // same time as event 1, issued later
	var got []uint64
	for {
		it, ok := q.Pop()
		if !ok {
			break
		}
		got = append(got, it.ID)
	}
	want := []uint64{1, 3, 2, 0}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestQueueDispatchZeroAlloc is the allocation-regression gate for the
// event core: push+pop on a warm queue must not allocate, so the serving
// hot path's per-op cost is pure compute.
func TestQueueDispatchZeroAlloc(t *testing.T) {
	var q Queue
	q.Grow(64)
	avg := testing.AllocsPerRun(1000, func() {
		for i := int64(0); i < 64; i++ {
			q.Push(i^21, uint64(i)) // mildly out of order
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if avg != 0 {
		t.Fatalf("event dispatch allocated %.1f times per drain, want 0", avg)
	}
}

// refQueue is the reference the queue is checked against: every pushed
// item, popped by a full sort on (At, Seq).
type refQueue []Item

// next returns the index of the item that sorts first.
func (r refQueue) next() int {
	i := 0
	for j := range r {
		if r[j].before(r[i]) {
			i = j
		}
	}
	return i
}

func (r *refQueue) pop() Item {
	i := r.next()
	it := (*r)[i]
	*r = append((*r)[:i], (*r)[i+1:]...)
	return it
}

// TestQueueMatchesSortedOrder cross-checks the queue against a reference
// sort for in-order, reversed, mixed and tie-heavy batches, random
// interleavings of pushes and pops, pushes made while a drain is under
// way, and reuse of a warm queue.
func TestQueueMatchesSortedOrder(t *testing.T) {
	batches := map[string]func(rng *rand.Rand, i, n int) int64{
		"in-order": func(_ *rand.Rand, i, _ int) int64 { return int64(i) * 10 },
		"reversed": func(_ *rand.Rand, i, n int) int64 { return int64(n-i) * 10 },
		"mixed": func(rng *rand.Rand, i, _ int) int64 {
			if rng.Intn(4) == 0 {
				return rng.Int63n(int64(i) + 1)
			}
			return int64(i)
		},
		"equal-at": func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(3) },
		"random":   func(rng *rand.Rand, _, _ int) int64 { return rng.Int63n(1000) },
	}
	for name, at := range batches {
		rng := rand.New(rand.NewSource(3))
		var q Queue
		var ref refQueue
		push := func(a int64) {
			seq := q.Push(a, uint64(len(ref)))
			ref = append(ref, Item{At: a, Seq: seq, ID: uint64(len(ref))})
		}
		for round := 0; round < 4; round++ {
			n := 1 + rng.Intn(300)
			for i := 0; i < n; i++ {
				push(at(rng, i, n))
			}
			// Drain part way, pushing follow-ups mid-drain as a handler
			// would: some at the popped time, some later, some earlier.
			for d := rng.Intn(n + 1); d > 0; d-- {
				it, _ := q.Pop()
				want := ref.pop()
				if it != want {
					t.Fatalf("%s: drain popped %+v, reference %+v", name, it, want)
				}
				switch rng.Intn(4) {
				case 0:
					push(it.At)
				case 1:
					push(it.At + rng.Int63n(50))
				case 2:
					push(it.At - rng.Int63n(50))
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("%s: Len %d, reference holds %d", name, q.Len(), len(ref))
			}
		}
		for len(ref) > 0 {
			want := ref.pop()
			if got, ok := q.Pop(); !ok || got != want {
				t.Fatalf("%s: final drain popped %+v, reference %+v", name, got, want)
			}
		}
		if _, ok := q.Pop(); ok || q.Len() != 0 {
			t.Fatalf("%s: queue not empty after the reference drained", name)
		}
	}
}

// TestQueueSteadyDrainZeroAlloc: a long-running queue that pops one event
// and pushes one in-order follow-up reclaims popped run space instead of
// growing without bound.
func TestQueueSteadyDrainZeroAlloc(t *testing.T) {
	var q Queue
	for i := int64(0); i < 1024; i++ {
		q.Push(i, uint64(i))
	}
	at := int64(1024)
	step := func() {
		q.Pop()
		q.Push(at, 0)
		at++
	}
	for i := 0; i < 4096; i++ {
		step() // settle the run's capacity
	}
	if avg := testing.AllocsPerRun(10000, step); avg != 0 {
		t.Fatalf("steady in-order push/pop allocated %.2f times per op, want 0", avg)
	}
	if c := cap(q.run); c > 4*1024 {
		t.Fatalf("run capacity grew to %d for 1024 live events", c)
	}
}

// TestQueueReserveRunOnly: after Reserve(r, 0), r in-order pushes land
// in the run without allocating, and the heap is never allocated. Each
// round drains the queue, so every round pushes into an empty queue.
func TestQueueReserveRunOnly(t *testing.T) {
	const r = 4096
	var q Queue
	q.Reserve(r, 0)
	avg := testing.AllocsPerRun(10, func() {
		for i := int64(0); i < r; i++ {
			q.Push(i/2, uint64(i)) // equal times still join the run
		}
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if avg != 0 {
		t.Fatalf("%d in-order pushes after Reserve(%d, 0) allocated %.0f times, want 0", r, r, avg)
	}
	if cap(q.heap) != 0 {
		t.Fatalf("heap capacity %d after in-order pushes, want 0", cap(q.heap))
	}
}

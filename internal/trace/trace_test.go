package trace

import (
	"testing"
	"time"

	"deepnote/internal/simclock"
)

func TestMeterBuckets(t *testing.T) {
	clock := simclock.NewVirtual()
	m := NewMeter(clock, time.Second)
	m.Add(2e6) // bucket 0
	clock.Sleep(1500 * time.Millisecond)
	m.Add(1e6)                   // bucket 1
	clock.Sleep(2 * time.Second) // buckets 2,3 silent
	m.Add(4e6)                   // bucket 3
	pts := m.Buckets()
	if len(pts) != 4 {
		t.Fatalf("buckets = %d, want 4", len(pts))
	}
	if pts[0].V != 2.0 || pts[1].V != 1.0 || pts[2].V != 0 || pts[3].V != 4.0 {
		t.Fatalf("values %v", pts)
	}
}

func TestMeterEmptyBucketsVisible(t *testing.T) {
	clock := simclock.NewVirtual()
	m := NewMeter(clock, time.Second)
	m.Add(1e6)
	clock.Sleep(5 * time.Second)
	pts := m.Buckets()
	// Trailing silence through "now" must appear as zero buckets.
	if len(pts) != 5 {
		t.Fatalf("buckets = %d, want 5 (1 active + 4 silent)", len(pts))
	}
	for _, p := range pts[1:] {
		if p.V != 0 {
			t.Fatalf("silent bucket nonzero: %v", p)
		}
	}
}

func TestMeterMean(t *testing.T) {
	clock := simclock.NewVirtual()
	m := NewMeter(clock, time.Second)
	m.Add(2e6)
	clock.Sleep(time.Second)
	m.Add(4e6)
	clock.Sleep(time.Second)
	if got := m.MeanMBps(0, 2*time.Second); got != 3.0 {
		t.Fatalf("mean = %v, want 3", got)
	}
	if got := m.MeanMBps(10*time.Second, 20*time.Second); got != 0 {
		t.Fatalf("empty-window mean = %v", got)
	}
}

func TestMeterMeanOverlapSemantics(t *testing.T) {
	// Buckets: [0s,1s) holds 2 MB/s, [1s,2s) holds 4 MB/s.
	clock := simclock.NewVirtual()
	m := NewMeter(clock, time.Second)
	m.Add(2e6)
	clock.Sleep(time.Second)
	m.Add(4e6)
	clock.Sleep(time.Second)

	// Regression: the old midpoint test dropped bucket 1 for the window
	// [0.5s, 1.5s) because its midpoint (1.5s) is not < 1.5s. Overlap
	// semantics include every bucket the window touches.
	if got := m.MeanMBps(500*time.Millisecond, 1500*time.Millisecond); got != 3.0 {
		t.Fatalf("overlap mean over [0.5s,1.5s) = %v, want 3 (both buckets)", got)
	}
	// Edge-aligned windows cover exactly the buckets inside them.
	if got := m.MeanMBps(time.Second, 2*time.Second); got != 4.0 {
		t.Fatalf("mean over [1s,2s) = %v, want 4", got)
	}
	if got := m.MeanMBps(0, time.Second); got != 2.0 {
		t.Fatalf("mean over [0s,1s) = %v, want 2", got)
	}
	// A window ending mid-bucket includes that partial bucket.
	if got := m.MeanMBps(0, 1500*time.Millisecond); got != 3.0 {
		t.Fatalf("mean over [0s,1.5s) = %v, want 3", got)
	}
	// Degenerate and out-of-range windows are empty.
	if got := m.MeanMBps(time.Second, time.Second); got != 0 {
		t.Fatalf("zero-width window mean = %v", got)
	}
	if got := m.MeanMBps(2*time.Second, time.Second); got != 0 {
		t.Fatalf("inverted window mean = %v", got)
	}
}

func TestMeterDefaultBucket(t *testing.T) {
	m := NewMeter(simclock.NewVirtual(), 0)
	if m.width != time.Second {
		t.Fatal("default bucket should be 1s")
	}
}

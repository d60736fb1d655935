package simclock

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestVirtualStartsAtEpoch(t *testing.T) {
	a := NewVirtual()
	b := NewVirtual()
	if !a.Now().Equal(b.Now()) {
		t.Fatal("two fresh clocks must agree")
	}
}

func TestSleepAdvances(t *testing.T) {
	c := NewVirtual()
	t0 := c.Now()
	c.Sleep(81 * time.Second)
	if got := c.Now().Sub(t0); got != 81*time.Second {
		t.Fatalf("elapsed = %v, want 81s", got)
	}
}

func TestSleepIgnoresNonPositive(t *testing.T) {
	c := NewVirtual()
	t0 := c.Now()
	c.Sleep(0)
	c.Sleep(-time.Second)
	if !c.Now().Equal(t0) {
		t.Fatal("non-positive sleep must not move time")
	}
}

func TestStringMentionsOffset(t *testing.T) {
	c := NewVirtual()
	c.Sleep(time.Second)
	if s := c.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestSleepSaturates(t *testing.T) {
	c := NewVirtual()
	c.Sleep(time.Hour)
	prev := c.Now()
	for i := 0; i < 2; i++ {
		c.Sleep(math.MaxInt64)
		now := c.Now()
		if now.Before(prev) {
			t.Fatalf("Sleep #%d moved time backwards: %v -> %v", i+1, prev, now)
		}
		prev = now
	}
	if want := epoch.Add(math.MaxInt64); !c.Now().Equal(want) {
		t.Fatalf("Now = %v, want the saturation point %v", c.Now(), want)
	}
	c.Sleep(time.Nanosecond)
	if !c.Now().Equal(prev) {
		t.Fatal("a saturated clock moved")
	}
}

// Now must match the time.Time the mutex-era clock produced: the epoch
// with every Sleep added in turn.
func TestNowMatchesAddChain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewVirtual()
	want := NewVirtual().Now()
	for i := 0; i < 10000; i++ {
		var d time.Duration
		switch rng.Intn(3) {
		case 0:
			d = time.Duration(rng.Int63n(1000))
		case 1:
			d = time.Duration(rng.Int63n(int64(10 * time.Second)))
		default:
			d = time.Duration(rng.Int63n(int64(48*time.Hour))) - time.Hour
		}
		c.Sleep(d)
		if d > 0 {
			want = want.Add(d)
		}
		if got := c.Now(); got != want {
			t.Fatalf("after %d sleeps Now = %v, want %v", i+1, got, want)
		}
	}
}

func TestNowAndSleepAllocateNothing(t *testing.T) {
	c := NewVirtual()
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Sleep(time.Millisecond)
		_ = c.Now()
	}); allocs != 0 {
		t.Fatalf("Now+Sleep: %v allocs/op, want 0", allocs)
	}
}

// timeSink and nanosSink keep the benchmarked calls' results live.
var (
	timeSink  time.Time
	nanosSink int64
)

// BenchmarkVirtualNow times one Sleep and one Now, the pair every drive
// access makes.
func BenchmarkVirtualNow(b *testing.B) {
	c := NewVirtual()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Sleep(time.Microsecond)
		timeSink = c.Now()
	}
}

// BenchmarkVirtualSleep times one Sleep, which every drive access and
// every network flight makes at least once.
func BenchmarkVirtualSleep(b *testing.B) {
	c := NewVirtual()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Sleep(time.Microsecond)
	}
	nanosSink = c.Nanos()
}

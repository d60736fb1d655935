package blockdev_test

import (
	"errors"
	"testing"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/faultinj"
	"deepnote/internal/hdd"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

// flaky fails the first failures attempts of each op, then succeeds.
type flaky struct {
	failures int
	attempts int
	clock    *simclock.Virtual
}

func (f *flaky) step() error {
	f.attempts++
	f.clock.Sleep(time.Millisecond)
	if f.attempts <= f.failures {
		return blockdev.ErrIO
	}
	return nil
}

func (f *flaky) ReadAt(p []byte, off int64) (int, error)  { return len(p), f.step() }
func (f *flaky) WriteAt(p []byte, off int64) (int, error) { return len(p), f.step() }
func (f *flaky) Flush() error                             { return f.step() }
func (f *flaky) Size() int64                              { return 1 << 30 }

func TestRetrierRecoversFromTransientErrors(t *testing.T) {
	clock := simclock.NewVirtual()
	dev := &flaky{failures: 3, clock: clock}
	r := blockdev.NewRetrier(dev, clock, blockdev.RetryPolicy{})
	if _, err := r.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("retrier gave up: %v", err)
	}
	if dev.attempts != 4 {
		t.Fatalf("attempts = %d, want 4", dev.attempts)
	}
	s := r.Stats()
	if s.Recovered != 1 || s.Retries != 3 || s.Exhausted != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Exponential backoff: 10 + 20 + 40 ms slept.
	if s.BackoffTime != 70*time.Millisecond {
		t.Fatalf("backoff = %v", s.BackoffTime)
	}
}

func TestRetrierGivesUpAtMaxRetries(t *testing.T) {
	clock := simclock.NewVirtual()
	dev := &flaky{failures: 100, clock: clock}
	r := blockdev.NewRetrier(dev, clock, blockdev.RetryPolicy{MaxRetries: 2})
	_, err := r.WriteAt(make([]byte, 512), 0)
	if !errors.Is(err, blockdev.ErrBudgetExhausted) || !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("err = %v", err)
	}
	if dev.attempts != 3 {
		t.Fatalf("attempts = %d, want 3", dev.attempts)
	}
	if r.Stats().Exhausted != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestRetrierHonorsDeadlineBudget(t *testing.T) {
	clock := simclock.NewVirtual()
	dev := &flaky{failures: 100, clock: clock}
	r := blockdev.NewRetrier(dev, clock, blockdev.RetryPolicy{
		MaxRetries:  50,
		BaseBackoff: 400 * time.Millisecond,
		MaxBackoff:  400 * time.Millisecond,
		Budget:      time.Second,
	})
	start := clock.Now()
	err := r.Flush()
	if !errors.Is(err, blockdev.ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	// 400ms backoffs against a 1s budget: attempts at 0, ~401, ~802 ms,
	// then the final backoff is clamped to the remaining budget so the
	// fourth attempt lands exactly at the 1s deadline edge.
	if dev.attempts != 4 {
		t.Fatalf("attempts = %d, want 4", dev.attempts)
	}
	// Sleeping never exceeds the budget; only attempt latency may spill.
	if s := r.Stats(); s.BackoffTime > time.Second {
		t.Fatalf("backoff overran budget: %v", s.BackoffTime)
	}
	if spent := clock.Now().Sub(start); spent > time.Second+4*time.Millisecond {
		t.Fatalf("spent %v, want <= budget + attempt latency", spent)
	}
}

func TestRetrierClampsFinalBackoffToDeadline(t *testing.T) {
	// Boundary regression: a retry whose doubled backoff would exceed the
	// remaining budget must be clamped to a final attempt at the deadline
	// edge, not silently skipped. The device recovers exactly on that
	// clamped fourth attempt — the old code abandoned the request first.
	clock := simclock.NewVirtual()
	dev := &flaky{failures: 3, clock: clock}
	r := blockdev.NewRetrier(dev, clock, blockdev.RetryPolicy{
		MaxRetries:  50,
		BaseBackoff: 400 * time.Millisecond,
		MaxBackoff:  400 * time.Millisecond,
		Budget:      time.Second,
	})
	if _, err := r.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatalf("clamped final attempt was skipped: %v", err)
	}
	if dev.attempts != 4 {
		t.Fatalf("attempts = %d, want 4", dev.attempts)
	}
	s := r.Stats()
	if s.Recovered != 1 || s.Exhausted != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Backoffs: 400 + 400 + (1000 - 803) clamped = 997 ms.
	if s.BackoffTime != 997*time.Millisecond {
		t.Fatalf("backoff = %v, want 997ms (final sleep clamped)", s.BackoffTime)
	}
}

func TestRetrierMasksInjectedBurst(t *testing.T) {
	// End-to-end composition: drive -> faultinj burst -> retrier. The
	// injected transient window fails the first attempts; backoff walks
	// the request past the window's end and the retry succeeds.
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 11)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinj.Wrap(blockdev.NewDisk(drive), clock, faultinj.Fault{
		Kind: faultinj.TransientError, Duration: 25 * time.Millisecond,
	})
	r := blockdev.NewRetrier(inj, clock, blockdev.RetryPolicy{})
	if _, err := r.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatalf("retrier failed to mask burst: %v", err)
	}
	if r.Stats().Recovered != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
	reg := metrics.NewRegistry()
	inj.PublishMetrics(reg)
	if reg.Snapshot().Counters["faultinj.injected_write_errors"] == 0 {
		t.Fatal("burst never fired")
	}
}

func TestRetrierPublishMetrics(t *testing.T) {
	clock := simclock.NewVirtual()
	dev := &flaky{failures: 1, clock: clock}
	r := blockdev.NewRetrier(dev, clock, blockdev.RetryPolicy{})
	if _, err := r.ReadAt(make([]byte, 512), 0); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	r.PublishMetrics(reg)
	snap := reg.Snapshot()
	for _, key := range []string{
		"blockdev.retry.requests", "blockdev.retry.retries", "blockdev.retry.recovered",
	} {
		if snap.Counters[key] != 1 {
			t.Fatalf("%s = %d in %+v", key, snap.Counters[key], snap.Counters)
		}
	}
	r.PublishMetrics(nil) // must not panic
}

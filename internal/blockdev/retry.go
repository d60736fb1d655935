package blockdev

import (
	"fmt"
	"time"

	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

// ErrBudgetExhausted is returned when a request and its retries exceed the
// per-request deadline budget. It wraps ErrIO so upper layers classify it
// like the underlying failure it masks.
var ErrBudgetExhausted = fmt.Errorf("%w: retry budget exhausted", ErrIO)

// RetryPolicy bounds the resilient I/O path at the device boundary: how many
// times a failed request is retried, how backoff grows between attempts, and
// how much total virtual time one request may consume. The zero value is
// usable via withDefaults; DefaultRetryPolicy documents the tuned defaults.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first failure.
	MaxRetries int
	// BaseBackoff is the sleep before the first retry; it doubles each
	// retry up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff time.Duration
	// Budget is the per-request deadline: once a request has consumed
	// this much virtual time across attempts and backoffs, the retrier
	// stops and returns ErrBudgetExhausted wrapping the last error.
	Budget time.Duration
}

// DefaultRetryPolicy is the tuned policy for the hardened victim stack:
// enough attempts to ride out a transient burst, bounded so a dead device
// fails a request in about two virtual seconds instead of hanging forever.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries:  4,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  time.Second,
		Budget:      2 * time.Second,
	}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxRetries == 0 {
		p.MaxRetries = d.MaxRetries
	}
	if p.BaseBackoff == 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.MaxBackoff == 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.Budget == 0 {
		p.Budget = d.Budget
	}
	return p
}

// RetryStats counts the retrier's outcomes.
type RetryStats struct {
	// Requests counts requests entering the retrier.
	Requests int64
	// Retries counts re-attempts issued (not counting first attempts).
	Retries int64
	// Recovered counts requests that failed at least once and then
	// succeeded within budget.
	Recovered int64
	// Exhausted counts requests abandoned on MaxRetries or budget.
	Exhausted int64
	// BackoffTime sums virtual time spent sleeping between attempts.
	BackoffTime time.Duration
}

// Retrier is a Device wrapper adding retry-with-exponential-backoff under a
// per-request deadline budget, with all waiting charged to the virtual
// clock. It converts transient device errors (acoustic bursts, injected
// hiccups) into latency instead of failures, which is exactly the trade the
// paper's victim stack lacked.
type Retrier struct {
	inner  Device
	clock  *simclock.Virtual
	policy RetryPolicy
	stats  RetryStats
}

// NewRetrier wraps inner with the given policy (zero fields take defaults).
func NewRetrier(inner Device, clock *simclock.Virtual, policy RetryPolicy) *Retrier {
	return &Retrier{inner: inner, clock: clock, policy: policy.withDefaults()}
}

// Stats returns a copy of the counters.
func (r *Retrier) Stats() RetryStats { return r.stats }

// Size returns the inner device capacity.
func (r *Retrier) Size() int64 { return r.inner.Size() }

// do runs op under the retry policy. op returns the attempt's error.
func (r *Retrier) do(op func() error) error {
	r.stats.Requests++
	start := r.clock.Now()
	backoff := r.policy.BaseBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil {
			if attempt > 0 {
				r.stats.Recovered++
			}
			return nil
		}
		lastErr = err
		if attempt >= r.policy.MaxRetries {
			r.stats.Exhausted++
			return fmt.Errorf("%w after %d attempts: %v", ErrBudgetExhausted, attempt+1, lastErr)
		}
		elapsed := r.clock.Now().Sub(start)
		if elapsed >= r.policy.Budget {
			r.stats.Exhausted++
			return fmt.Errorf("%w after %v: %v", ErrBudgetExhausted, elapsed, lastErr)
		}
		if remaining := r.policy.Budget - elapsed; backoff > remaining {
			// The doubled backoff would overshoot the deadline. Clamp it
			// so the request spends its whole budget and gets one final
			// attempt at the deadline edge instead of abandoning the
			// remainder unspent.
			backoff = remaining
		}
		r.clock.Sleep(backoff)
		r.stats.BackoffTime += backoff
		r.stats.Retries++
		if backoff *= 2; backoff > r.policy.MaxBackoff {
			backoff = r.policy.MaxBackoff
		}
	}
}

// ReadAt implements Device.
func (r *Retrier) ReadAt(p []byte, off int64) (int, error) {
	var n int
	err := r.do(func() error {
		var err error
		n, err = r.inner.ReadAt(p, off)
		return err
	})
	return n, err
}

// WriteAt implements Device.
func (r *Retrier) WriteAt(p []byte, off int64) (int, error) {
	var n int
	err := r.do(func() error {
		var err error
		n, err = r.inner.WriteAt(p, off)
		return err
	})
	return n, err
}

// Flush implements Device.
func (r *Retrier) Flush() error {
	return r.do(r.inner.Flush)
}

// PublishMetrics pushes the retrier's counters into a registry under the
// "blockdev.retry." prefix (no-op on a nil registry).
func (r *Retrier) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s := r.stats
	reg.Add("blockdev.retry.requests", s.Requests)
	reg.Add("blockdev.retry.retries", s.Retries)
	reg.Add("blockdev.retry.recovered", s.Recovered)
	reg.Add("blockdev.retry.exhausted", s.Exhausted)
	reg.Add("blockdev.retry.backoff_ns_total", int64(s.BackoffTime))
}

var _ Device = (*Retrier)(nil)

// Package faultinj is the deterministic fault-injection harness: a
// blockdev.Device wrapper that fails every request inside scheduled
// windows of virtual time, underneath any software substrate. It exists so
// the victim stack's robustness mechanisms (retries, watchdog reboots)
// can be exercised independently of the acoustic attack model, and
// *composed* with it: the wrapper stacks above or below an attacked
// blockdev.Disk or a blockdev.Retrier, so an experiment can overlay a
// transient-error burst on top of the paper's §4.3 prolonged tone.
//
// Every window is scheduled in virtual time relative to the wrapper's
// creation, so a run with the same schedule reproduces bit-for-bit at any
// worker count.
package faultinj

import (
	"fmt"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

// ErrInjected is the error returned for injected failures. It wraps
// blockdev.ErrIO, so every upper layer classifies an injected fault exactly
// like a real EIO from the drive.
var ErrInjected = fmt.Errorf("%w: injected fault", blockdev.ErrIO)

// Kind is the fault class.
type Kind int

// Fault classes.
const (
	// TransientError fails every request during the window; requests
	// outside the window pass through untouched. This is the "drive
	// hiccup" a retry policy must absorb.
	TransientError Kind = iota
)

// String names the kind.
func (k Kind) String() string {
	if k == TransientError {
		return "transient-error"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Fault is one scheduled fault rule.
type Fault struct {
	// Kind selects the failure mode.
	Kind Kind
	// Start is the window start in virtual time since the wrapper was
	// created.
	Start time.Duration
	// Duration is the window length; zero means the rule never fires.
	Duration time.Duration
}

// active reports whether the rule's window covers elapsed.
func (f Fault) active(elapsed time.Duration) bool {
	return elapsed >= f.Start && elapsed < f.Start+f.Duration
}

// Stats counts injected faults and passthrough traffic.
type Stats struct {
	// Reads, Writes, Flushes count requests that reached the wrapper.
	Reads, Writes, Flushes int64
	// InjectedReadErrs, InjectedWriteErrs, InjectedFlushErrs count
	// requests failed by a rule.
	InjectedReadErrs, InjectedWriteErrs, InjectedFlushErrs int64
}

// Device is a fault-injecting blockdev.Device wrapper.
type Device struct {
	inner  blockdev.Device
	clock  *simclock.Virtual
	origin time.Time
	faults []Fault
	stats  Stats
}

// Wrap builds a fault-injecting wrapper over inner. The fault windows are
// anchored at the wrapper's creation time on clock.
func Wrap(inner blockdev.Device, clock *simclock.Virtual, faults ...Fault) *Device {
	return &Device{
		inner:  inner,
		clock:  clock,
		origin: clock.Now(),
		faults: append([]Fault(nil), faults...),
	}
}

// Size returns the inner device capacity.
func (d *Device) Size() int64 { return d.inner.Size() }

// match returns the first rule active now, or nil.
func (d *Device) match() *Fault {
	elapsed := d.clock.Now().Sub(d.origin)
	for i := range d.faults {
		if d.faults[i].active(elapsed) {
			return &d.faults[i]
		}
	}
	return nil
}

// ReadAt implements blockdev.Device.
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	d.stats.Reads++
	if f := d.match(); f != nil {
		d.stats.InjectedReadErrs++
		return 0, fmt.Errorf("%w: %v read at offset %d", ErrInjected, f.Kind, off)
	}
	return d.inner.ReadAt(p, off)
}

// WriteAt implements blockdev.Device.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	d.stats.Writes++
	if f := d.match(); f != nil {
		d.stats.InjectedWriteErrs++
		return 0, fmt.Errorf("%w: %v write at offset %d", ErrInjected, f.Kind, off)
	}
	return d.inner.WriteAt(p, off)
}

// Flush implements blockdev.Device.
func (d *Device) Flush() error {
	d.stats.Flushes++
	if f := d.match(); f != nil {
		d.stats.InjectedFlushErrs++
		return fmt.Errorf("%w: %v flush", ErrInjected, f.Kind)
	}
	return d.inner.Flush()
}

// PublishMetrics pushes the harness counters into a registry under the
// "faultinj." prefix (no-op on a nil registry).
func (d *Device) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s := d.stats
	reg.Add("faultinj.reads", s.Reads)
	reg.Add("faultinj.writes", s.Writes)
	reg.Add("faultinj.flushes", s.Flushes)
	reg.Add("faultinj.injected_read_errors", s.InjectedReadErrs)
	reg.Add("faultinj.injected_write_errors", s.InjectedWriteErrs)
	reg.Add("faultinj.injected_flush_errors", s.InjectedFlushErrs)
	// The harness injects only transient errors; the three specialty
	// keys stay at zero so published snapshots keep their schema.
	reg.Add("faultinj.torn_writes", 0)
	reg.Add("faultinj.stuck_ios", 0)
	reg.Add("faultinj.latency_spikes", 0)
	reg.Add("faultinj.rules", int64(len(d.faults)))
}

var _ blockdev.Device = (*Device)(nil)

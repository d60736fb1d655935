// Package faultinj is the deterministic fault-injection harness: a
// blockdev.Device wrapper that injects seeded, simclock-scheduled faults —
// transient or permanent read/write errors, latency spikes, torn writes,
// stuck I/O — underneath any software substrate. It exists so the victim
// stack's robustness mechanisms (retries, watchdog reboots, circuit
// breakers) can be exercised and regression-tested independently of the
// acoustic attack model, and *composed* with it: the wrapper stacks above
// or below an attacked blockdev.Disk or a blockdev.Retrier, so an
// experiment can overlay a transient-error burst on top of the paper's
// §4.3 prolonged tone.
//
// Every fault is scheduled in virtual time relative to the wrapper's
// creation and drawn from a seeded RNG, so a run with the same seed and
// schedule reproduces bit-for-bit at any worker count.
package faultinj

import (
	"fmt"
	"math/rand"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

// ErrInjected is the error returned for injected failures. It wraps
// blockdev.ErrIO, so every upper layer classifies an injected fault exactly
// like a real EIO from the drive.
var ErrInjected = fmt.Errorf("%w: injected fault", blockdev.ErrIO)

// OpMask selects which operations a fault applies to.
type OpMask uint8

// Operation bits.
const (
	OpRead OpMask = 1 << iota
	OpWrite
	OpFlush
	// OpAll targets every operation.
	OpAll = OpRead | OpWrite | OpFlush
)

// Kind is the fault class.
type Kind int

// Fault classes.
const (
	// TransientError fails matching requests during the window; requests
	// outside the window pass through untouched. This is the "drive
	// hiccup" a retry policy must absorb.
	TransientError Kind = iota
	// PermanentError fails every matching request from Start onward
	// (Duration is ignored): a dead member a RAID rebuild must replace.
	PermanentError
	// LatencySpike completes matching requests but charges Extra virtual
	// time first: the degraded-but-alive regime where deadline budgets
	// and hedged reads matter.
	LatencySpike
	// TornWrite writes only the first half of the request's payload,
	// then fails: the partial-write crash a journal replay must mask.
	TornWrite
	// StuckIO hangs the request for Extra virtual time and then fails:
	// the blocked-I/O convoy the paper's dmesg traces show.
	StuckIO
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case TransientError:
		return "transient-error"
	case PermanentError:
		return "permanent-error"
	case LatencySpike:
		return "latency-spike"
	case TornWrite:
		return "torn-write"
	case StuckIO:
		return "stuck-io"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scheduled fault rule.
type Fault struct {
	// Kind selects the failure mode.
	Kind Kind
	// Ops selects the targeted operations (default OpAll; TornWrite
	// only ever applies to writes).
	Ops OpMask
	// Start is the window start in virtual time since the wrapper was
	// created.
	Start time.Duration
	// Duration is the window length (ignored for PermanentError; zero
	// means the rule never fires for other kinds).
	Duration time.Duration
	// Probability is the per-request chance the fault fires inside the
	// window (default 1.0).
	Probability float64
	// Extra is the added virtual time for LatencySpike and StuckIO
	// (default 100 ms).
	Extra time.Duration
}

func (f Fault) withDefaults() Fault {
	if f.Ops == 0 {
		f.Ops = OpAll
	}
	if f.Probability == 0 {
		f.Probability = 1
	}
	if f.Extra == 0 {
		f.Extra = 100 * time.Millisecond
	}
	return f
}

// active reports whether the rule's window covers elapsed.
func (f Fault) active(elapsed time.Duration) bool {
	if elapsed < f.Start {
		return false
	}
	if f.Kind == PermanentError {
		return true
	}
	return elapsed < f.Start+f.Duration
}

// Stats counts injected faults and passthrough traffic.
type Stats struct {
	// Reads, Writes, Flushes count requests that reached the wrapper.
	Reads, Writes, Flushes int64
	// InjectedReadErrs, InjectedWriteErrs, InjectedFlushErrs count
	// requests failed by a rule.
	InjectedReadErrs, InjectedWriteErrs, InjectedFlushErrs int64
	// TornWrites, StuckIOs, LatencySpikes count the specialty faults.
	TornWrites, StuckIOs, LatencySpikes int64
}

// Device is a fault-injecting blockdev.Device wrapper.
type Device struct {
	inner  blockdev.Device
	clock  *simclock.Virtual
	origin time.Time
	faults []Fault
	rng    *rand.Rand
	stats  Stats
}

// Wrap builds a fault-injecting wrapper over inner. The fault windows are
// anchored at the wrapper's creation time on clock; the seed drives
// probabilistic rules.
func Wrap(inner blockdev.Device, clock *simclock.Virtual, seed int64, faults ...Fault) *Device {
	if seed == 0 {
		seed = 1
	}
	fs := make([]Fault, len(faults))
	for i, f := range faults {
		fs[i] = f.withDefaults()
	}
	return &Device{
		inner:  inner,
		clock:  clock,
		origin: clock.Now(),
		faults: fs,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Size returns the inner device capacity.
func (d *Device) Size() int64 { return d.inner.Size() }

// match returns the first active rule targeting op whose probability draw
// fires, or nil. Probability draws happen for every active matching rule
// in schedule order, so the RNG stream depends only on the request
// sequence.
func (d *Device) match(op OpMask) *Fault {
	elapsed := d.clock.Now().Sub(d.origin)
	for i := range d.faults {
		f := &d.faults[i]
		if f.Ops&op == 0 || !f.active(elapsed) {
			continue
		}
		if f.Probability >= 1 || d.rng.Float64() < f.Probability {
			return f
		}
	}
	return nil
}

// ReadAt implements blockdev.Device.
func (d *Device) ReadAt(p []byte, off int64) (int, error) {
	d.stats.Reads++
	if f := d.match(OpRead); f != nil {
		switch f.Kind {
		case LatencySpike:
			d.stats.LatencySpikes++
			d.clock.Sleep(f.Extra)
		case StuckIO:
			d.stats.StuckIOs++
			d.stats.InjectedReadErrs++
			d.clock.Sleep(f.Extra)
			return 0, fmt.Errorf("%w: read stuck %v at offset %d", ErrInjected, f.Extra, off)
		default:
			d.stats.InjectedReadErrs++
			return 0, fmt.Errorf("%w: %v read at offset %d", ErrInjected, f.Kind, off)
		}
	}
	return d.inner.ReadAt(p, off)
}

// WriteAt implements blockdev.Device.
func (d *Device) WriteAt(p []byte, off int64) (int, error) {
	d.stats.Writes++
	if f := d.match(OpWrite); f != nil {
		switch f.Kind {
		case LatencySpike:
			d.stats.LatencySpikes++
			d.clock.Sleep(f.Extra)
		case StuckIO:
			d.stats.StuckIOs++
			d.stats.InjectedWriteErrs++
			d.clock.Sleep(f.Extra)
			return 0, fmt.Errorf("%w: write stuck %v at offset %d", ErrInjected, f.Extra, off)
		case TornWrite:
			d.stats.TornWrites++
			d.stats.InjectedWriteErrs++
			n, _ := d.inner.WriteAt(p[:len(p)/2], off)
			return n, fmt.Errorf("%w: torn write at offset %d (%d of %d bytes)", ErrInjected, off, n, len(p))
		default:
			d.stats.InjectedWriteErrs++
			return 0, fmt.Errorf("%w: %v write at offset %d", ErrInjected, f.Kind, off)
		}
	}
	return d.inner.WriteAt(p, off)
}

// Flush implements blockdev.Device.
func (d *Device) Flush() error {
	d.stats.Flushes++
	if f := d.match(OpFlush); f != nil {
		switch f.Kind {
		case LatencySpike:
			d.stats.LatencySpikes++
			d.clock.Sleep(f.Extra)
		case StuckIO:
			d.stats.StuckIOs++
			d.stats.InjectedFlushErrs++
			d.clock.Sleep(f.Extra)
			return fmt.Errorf("%w: flush stuck %v", ErrInjected, f.Extra)
		case TornWrite:
			// A torn flush is just a failed flush: nothing to tear.
			d.stats.InjectedFlushErrs++
			return fmt.Errorf("%w: %v flush", ErrInjected, f.Kind)
		default:
			d.stats.InjectedFlushErrs++
			return fmt.Errorf("%w: %v flush", ErrInjected, f.Kind)
		}
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
	reg.Add("faultinj.torn_writes", s.TornWrites)
	reg.Add("faultinj.stuck_ios", s.StuckIOs)
	reg.Add("faultinj.latency_spikes", s.LatencySpikes)
	reg.Add("faultinj.rules", int64(len(d.faults)))
}

var _ blockdev.Device = (*Device)(nil)

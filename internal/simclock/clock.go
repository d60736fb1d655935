// Package simclock provides the deterministic virtual time base every
// stateful component of the simulation runs on. Experiments that take the
// paper minutes of wall-clock time (an 81-second crash run, a multi-hour
// sweep) execute in microseconds of real time, and rerunning an experiment
// with the same seed reproduces it bit-for-bit.
package simclock

import (
	"fmt"
	"math"
	"time"
)

// Virtual is a deterministic, manually advanced clock. The zero value is
// a clock at the epoch, as NewVirtual returns.
//
// The clock holds the virtual nanoseconds elapsed since a fixed epoch in
// an int64, and Now is the epoch plus that offset — the same time.Time
// the sum of every Sleep added to the epoch would give. The offset
// saturates at math.MaxInt64 nanoseconds (about 292 years, in the year
// 2315) rather than wrapping, so time never runs backwards.
//
// Virtual is not safe for concurrent use; one owner, like hdd.Drive. A
// clock belongs to the stack built on it (drive, block device, server),
// and only the goroutine that owns that stack sleeps or reads it. Code
// that fans work out across goroutines gives each one its own clock.
type Virtual struct {
	ns int64 // virtual nanoseconds since epoch
}

// epoch is every Virtual's time zero. It is arbitrary but fixed, so runs
// are reproducible.
var epoch = time.Date(2023, time.July, 9, 0, 0, 0, 0, time.UTC)

// NewVirtual returns a virtual clock starting at the fixed epoch.
func NewVirtual() *Virtual { return &Virtual{} }

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time { return epoch.Add(time.Duration(v.ns)) }

// Nanos returns the current virtual time as nanoseconds since the epoch:
// Now without the time.Time, for engines that keep simulated time as
// int64 offsets. Now().Sub(t) equals time.Duration(Nanos() - tn) for any
// tn another Nanos call returned at time t; both offsets lie in
// [0, math.MaxInt64], so the difference never overflows, even at the
// ceiling.
func (v *Virtual) Nanos() int64 { return v.ns }

// Sleep advances the clock by d, saturating at math.MaxInt64 nanoseconds
// past the epoch. Non-positive durations are ignored.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	next := v.ns + int64(d)
	if next < v.ns {
		next = math.MaxInt64
	}
	v.ns = next
}

// String renders the clock's current offset from its epoch.
func (v *Virtual) String() string {
	return fmt.Sprintf("virtual(+%s)", time.Duration(v.ns))
}

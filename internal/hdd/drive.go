package hdd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
	"deepnote/internal/units"
)

// Op is the kind of media access.
type Op int

// Operation kinds.
const (
	OpRead Op = iota
	OpWrite
)

// String names the op.
func (o Op) String() string {
	if o == OpWrite {
		return "write"
	}
	return "read"
}

// Errors reported by the drive.
var (
	// ErrMediaTimeout is returned when an operation exhausts its retry
	// budget without ever holding the head on track long enough.
	ErrMediaTimeout = errors.New("hdd: media access timed out after retries")
	// ErrHeadsParked is returned while the shock sensor has the heads
	// parked off the platters.
	ErrHeadsParked = errors.New("hdd: heads parked by shock sensor")
	// ErrOutOfRange is returned for accesses beyond the drive capacity.
	ErrOutOfRange = errors.New("hdd: access beyond device capacity")
)

// ChunkBytes is the service granularity of the drive: Access splits every
// request into independent ChunkBytes-sized chunks (roughly one servo
// sector), each of which must hold track for its own transfer window and
// retries on its own. The success-probability predictors and the analytic
// throughput oracle mirror this granularity.
const ChunkBytes = 4096

// Vibration is the excitation state applied to a drive: one tone at Freq
// whose off-track displacement amplitude is Amplitude (track-pitch
// fractions), plus broadband jitter. The attack is one sine tone at a
// time (§4), so there is no multi-tone state.
type Vibration struct {
	// Freq is the excitation frequency.
	Freq units.Frequency
	// Amplitude is the sinusoidal off-track amplitude in track-pitch
	// fractions.
	Amplitude float64
	// ExtraJitter adds broadband off-track noise (1σ, track fractions)
	// on top of the drive's own ambient jitter.
	ExtraJitter float64
}

// Quiet is the no-attack vibration state.
func Quiet() Vibration { return Vibration{} }

// IsQuiet reports whether the excitation carries no tonal energy.
func (v Vibration) IsQuiet() bool {
	return v.Amplitude == 0 && v.ExtraJitter == 0
}

// Stats counts drive activity.
type Stats struct {
	Reads, Writes           int64
	ReadErrors, WriteErrors int64
	Retries                 int64
	Seeks                   int64
	ShockParks              int64
	AdjacentCorruptions     int64
	BytesRead, BytesWritten int64
}

// Drive is an operating disk: a Model plus mutable state. Drives are not
// safe for concurrent use; the simulation serializes I/O as a real single-
// actuator drive does.
type Drive struct {
	model  Model
	clock  *simclock.Virtual
	rng    *rand.Rand
	vib    Vibration
	stats  Stats
	parked time.Time // heads parked until this instant
	lastOp struct {
		end int64
		set bool
	}
}

// NewDrive returns a drive with the given model, clock, and deterministic
// seed.
func NewDrive(m Model, clock *simclock.Virtual, seed int64) (*Drive, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if clock == nil {
		return nil, errors.New("hdd: clock must not be nil")
	}
	return &Drive{model: m, clock: clock, rng: rand.New(rand.NewSource(seed))}, nil
}

// Model returns the drive's static model.
func (d *Drive) Model() Model { return d.model }

// Stats returns a copy of the activity counters.
func (d *Drive) Stats() Stats { return d.stats }

// PublishMetrics pushes the drive's counters into a registry under the
// "hdd." prefix. Counters are cumulative totals; callers publish once per
// drive lifetime (no-op on a nil registry).
func (d *Drive) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s := d.stats
	reg.Add("hdd.reads", s.Reads)
	reg.Add("hdd.writes", s.Writes)
	reg.Add("hdd.read_errors", s.ReadErrors)
	reg.Add("hdd.write_errors", s.WriteErrors)
	reg.Add("hdd.retries", s.Retries)
	reg.Add("hdd.seeks", s.Seeks)
	reg.Add("hdd.shock_parks", s.ShockParks)
	reg.Add("hdd.adjacent_corruptions", s.AdjacentCorruptions)
	reg.Add("hdd.bytes_read", s.BytesRead)
	reg.Add("hdd.bytes_written", s.BytesWritten)
}

// Vibration returns the current excitation state.
func (d *Drive) Vibration() Vibration { return d.vib }

// SetVibration applies an excitation state, e.g. computed by the testbed
// from an attack tone. It also evaluates the shock sensor: ultrasonic
// content above the sensor's threshold parks the heads.
func (d *Drive) SetVibration(v Vibration) {
	d.vib = v
	if v.Freq >= d.model.ShockSensorMin && v.Amplitude >= d.model.ShockSensorAmpFrac {
		d.parked = d.clock.Now().Add(d.model.ParkDuration)
		d.stats.ShockParks++
	}
}

// Capacity returns the drive capacity in bytes.
func (d *Drive) Capacity() int64 { return d.model.CapacityBytes }

// Result describes one completed (or failed) access.
type Result struct {
	// Latency is the total virtual time the access took, including
	// retries. It has already been charged to the clock.
	Latency time.Duration
	// Retries is how many positioning retries were needed.
	Retries int
	// AdjacentCorruptions lists byte offsets whose adjacent-track data
	// was silently squeezed by marginal writes (only with the model's
	// AdjacentCorruptionProb enabled). The drive does NOT know about
	// these — they surface later as unreadable or wrong data.
	AdjacentCorruptions []int64
	// Err is nil on success.
	Err error
}

// Access performs one media access of length bytes at the given offset.
// Virtual time is charged to the drive's clock as the access proceeds.
func (d *Drive) Access(op Op, offset, length int64) Result {
	if offset < 0 || length <= 0 || offset+length > d.model.CapacityBytes {
		return Result{Err: fmt.Errorf("%w: offset=%d length=%d", ErrOutOfRange, offset, length)}
	}
	if until := d.parked; d.clock.Now().Before(until) {
		// The drive rejects I/O while parked; the command round trip
		// still costs a little time so callers can't spin for free.
		const rejectCost = 100 * time.Microsecond
		d.clock.Sleep(rejectCost)
		d.countError(op)
		return Result{Latency: rejectCost, Err: ErrHeadsParked}
	}

	threshold := d.model.ReadFaultFrac
	retryCost := d.model.RetryRead
	if op == OpWrite {
		threshold = d.model.WriteFaultFrac
		retryCost = d.model.RetryWrite
	}

	// The drive services a request chunk by chunk (roughly one servo
	// sector at a time): each chunk must hold track for its own zoned
	// transfer plus the wedge window, and each chunk retries
	// independently. Large sequential requests therefore crawl rather
	// than atomically fail under moderate vibration. Media transfer is
	// charged per completed chunk, so an operation that times out partway
	// through pays only for the work it actually performed.
	total := d.fixedTime(op, offset)
	totalRetries := 0
	var corruptions []int64
	for done := int64(0); done < length; done += ChunkBytes {
		chunk := length - done
		if chunk > ChunkBytes {
			chunk = ChunkBytes
		}
		transfer := d.model.TransferTimeAt(offset+done, chunk)
		hold := transfer + d.model.WedgeWindow
		for attempt := 0; ; attempt++ {
			if attempt > 0 {
				total += retryCost
				totalRetries++
				d.stats.Retries++
			}
			ok, peakFrac := d.attemptHoldsTrack(threshold, hold)
			if ok {
				total += transfer
				// The integrity surface: a write that squeaked through
				// near the gate may have squeezed the adjacent track.
				if op == OpWrite && d.model.AdjacentCorruptionProb > 0 &&
					peakFrac >= 0.6 && d.rng.Float64() < d.model.AdjacentCorruptionProb {
					if victim := d.adjacentOffset(offset + done); victim >= 0 {
						corruptions = append(corruptions, victim)
						d.stats.AdjacentCorruptions++
					}
				}
				break
			}
			if attempt >= d.model.MaxRetries {
				d.clock.Sleep(total)
				d.countError(op)
				d.lastOp.set = false
				return Result{Latency: total, Retries: totalRetries, AdjacentCorruptions: corruptions, Err: ErrMediaTimeout}
			}
		}
	}
	d.clock.Sleep(total)
	d.count(op, length)
	d.lastOp.end = offset + length
	d.lastOp.set = true
	return Result{Latency: total, Retries: totalRetries, AdjacentCorruptions: corruptions}
}

// adjacentOffset locates the neighboring-track LBA range for a given
// offset, preferring the previous track (returns -1 when none exists).
func (d *Drive) adjacentOffset(offset int64) int64 {
	tb := d.model.TrackBytes
	if tb <= 0 {
		return -1
	}
	if offset >= tb {
		return offset - tb
	}
	if offset+tb < d.model.CapacityBytes {
		return offset + tb
	}
	return -1
}

// fixedTime is the positioning cost of an access before any media transfer:
// overhead, plus seek and rotational latency when the access is not
// sequential with the previous one. Seeks cost by travel distance; reads pay
// a half-revolution average rotational latency while writes pay far less
// because the on-drive write-back cache acknowledges and reorders them.
// Media transfer is charged separately, per completed chunk.
func (d *Drive) fixedTime(op Op, offset int64) time.Duration {
	t := d.model.ReadOverhead
	if op == OpWrite {
		t = d.model.WriteOverhead
	}
	if !d.lastOp.set || d.lastOp.end != offset {
		d.stats.Seeks++
		t += d.model.SeekTime(offset - d.lastOp.end)
		if op == OpRead {
			t += d.model.RevolutionPeriod() / 2
		} else {
			t += d.model.RevolutionPeriod() / 8
		}
	}
	return t
}

// attemptHoldsTrack decides whether one positioning attempt keeps the head
// within the fault threshold for the whole hold window. The head's
// off-track displacement is A·sin(ωt+φ) with random phase plus Gaussian
// jitter; the attempt fails if the peak excursion over the window crosses
// the threshold. peakFrac reports the worst excursion as a fraction of the
// threshold (for the marginal-write integrity model).
func (d *Drive) attemptHoldsTrack(threshold float64, hold time.Duration) (ok bool, peakFrac float64) {
	sigma := d.model.BaseJitterFrac + d.vib.ExtraJitter
	jitter := math.Abs(d.rng.NormFloat64()) * sigma
	a := d.vib.Amplitude
	if a >= d.model.ServoLockFrac {
		// Position feedback is gone: the servo wedges themselves are
		// unreadable, so no attempt can succeed.
		return false, a / threshold
	}
	if a <= 0 {
		return jitter < threshold, jitter / threshold
	}
	phase := d.rng.Float64() * 2 * math.Pi
	window := d.vib.Freq.AngularVelocity() * hold.Seconds()
	peak := a*maxAbsSinOver(phase, window) + jitter
	return peak < threshold, peak / threshold
}

// MaxAbsSinOver returns max(|sin θ|) for θ in [phase, phase+width] — the
// peak excursion factor of a sinusoidal disturbance observed over a hold
// window of width radians starting at the given phase. It is exported so
// the analytic throughput oracle integrates over the exact same window
// geometry the drive's attempt model uses.
func MaxAbsSinOver(phase, width float64) float64 { return maxAbsSinOver(phase, width) }

// maxAbsSinOver returns max(|sin θ|) for θ in [phase, phase+width].
func maxAbsSinOver(phase, width float64) float64 {
	if width >= math.Pi {
		return 1
	}
	// Normalize the start into [0, π): |sin| has period π.
	start := math.Mod(phase, math.Pi)
	if start < 0 {
		start += math.Pi
	}
	end := start + width
	// A crest of |sin| sits at π/2 (+kπ).
	if start <= math.Pi/2 && end >= math.Pi/2 {
		return 1
	}
	if end >= math.Pi && end-math.Pi >= math.Pi/2-1e-15 {
		// The window wrapped past π and reached the next crest. Given
		// width < π this can only happen when start > π/2, so the crest
		// at 3π/2 equivalent is included.
		return 1
	}
	return math.Max(math.Abs(math.Sin(start)), math.Abs(math.Sin(end)))
}

func (d *Drive) count(op Op, n int64) {
	if op == OpWrite {
		d.stats.Writes++
		d.stats.BytesWritten += n
	} else {
		d.stats.Reads++
		d.stats.BytesRead += n
	}
}

func (d *Drive) countError(op Op) {
	if op == OpWrite {
		d.stats.WriteErrors++
	} else {
		d.stats.ReadErrors++
	}
}

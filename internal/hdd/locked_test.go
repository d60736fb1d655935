package hdd

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"deepnote/internal/simclock"
	"deepnote/internal/units"
)

// refDrive is the drive as it was before servo-locked accesses became
// O(1): Access runs every attempt, each attempt draws its jitter even
// when the servo is locked, and parking is a time.Time deadline. It
// shares only Drive's timing and counting helpers, never owed.
type refDrive struct {
	*Drive
	parked time.Time
}

func (r *refDrive) SetVibration(v Vibration) {
	r.vib = v
	if v.Freq >= r.model.ShockSensorMin && v.Amplitude >= r.model.ShockSensorAmpFrac {
		r.parked = r.clock.Now().Add(r.model.ParkDuration)
		r.stats.ShockParks++
	}
}

func (r *refDrive) Access(op Op, offset, length int64) Result {
	d := r.Drive
	if offset < 0 || length <= 0 || offset+length > d.model.CapacityBytes {
		return Result{Err: ErrOutOfRange}
	}
	if d.clock.Now().Before(r.parked) {
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
			ok, peakFrac := r.attemptHoldsTrack(threshold, hold)
			if ok {
				total += transfer
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

func (r *refDrive) attemptHoldsTrack(threshold float64, hold time.Duration) (bool, float64) {
	d := r.Drive
	jitter := math.Abs(d.rng.NormFloat64()) * d.model.BaseJitterFrac
	a := d.vib.Amplitude
	if a >= d.model.ServoLockFrac {
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

// drivePair is one drive under test and its reference twin, built from
// the same model and seed on clocks of their own.
type drivePair struct {
	got       *Drive
	want      *refDrive
	gotClock  *simclock.Virtual
	wantClock *simclock.Virtual
}

func newDrivePair(t *testing.T, m Model, seed int64) *drivePair {
	t.Helper()
	p := &drivePair{gotClock: simclock.NewVirtual(), wantClock: simclock.NewVirtual()}
	var err error
	if p.got, err = NewDrive(m, p.gotClock, seed); err != nil {
		t.Fatal(err)
	}
	ref, err := NewDrive(m, p.wantClock, seed)
	if err != nil {
		t.Fatal(err)
	}
	p.want = &refDrive{Drive: ref}
	return p
}

func (p *drivePair) setVibration(v Vibration) {
	p.got.SetVibration(v)
	p.want.SetVibration(v)
}

func (p *drivePair) sleep(d time.Duration) {
	p.gotClock.Sleep(d)
	p.wantClock.Sleep(d)
}

// access runs one access on both drives and returns the result of the
// drive under test.
func (p *drivePair) access(t *testing.T, step int, op Op, off, n int64) Result {
	t.Helper()
	got := p.got.Access(op, off, n)
	want := p.want.Access(op, off, n)
	if !errors.Is(got.Err, want.Err) || got.Latency != want.Latency || got.Retries != want.Retries ||
		!reflect.DeepEqual(got.AdjacentCorruptions, want.AdjacentCorruptions) {
		t.Fatalf("step %d %s off=%d n=%d: got %+v, want %+v", step, op, off, n, got, want)
	}
	if p.got.stats != p.want.stats {
		t.Fatalf("step %d: stats %+v, want %+v", step, p.got.stats, p.want.stats)
	}
	if g, w := p.gotClock.Nanos(), p.wantClock.Nanos(); g != w {
		t.Fatalf("step %d: clock %d ns, want %d ns", step, g, w)
	}
	return got
}

// TestServoLockedAccessMatchesPerAttemptLoop drives a drive and the
// per-attempt reference from one seed through quiet, servo-locked,
// marginal, NaN and parked phases. Every result, counter and clock
// reading must match, and once the drive pays what it owes, so must its
// rng stream. The integrity model is on, so the adjacent-corruption
// draw after a settle sits between owed draws and new ones.
func TestServoLockedAccessMatchesPerAttemptLoop(t *testing.T) {
	m := Barracuda500()
	m.AdjacentCorruptionProb = 0.3
	const f = 650 * units.Hz
	quiet := Quiet()
	locked := Vibration{Freq: f, Amplitude: m.ServoLockFrac * 1.2}
	atLock := Vibration{Freq: f, Amplitude: m.ServoLockFrac}
	marginal := Vibration{Freq: f, Amplitude: m.WriteFaultFrac * 0.85}
	retrying := Vibration{Freq: f, Amplitude: m.ReadFaultFrac * 1.05}
	nan := Vibration{Freq: f, Amplitude: math.NaN()}
	shock := Vibration{Freq: 20 * units.KHz, Amplitude: m.ServoLockFrac * 1.5}
	phases := []struct {
		vib Vibration
		ops int
	}{
		{quiet, 20}, {locked, 15}, {marginal, 40}, {atLock, 5}, {retrying, 10},
		{locked, 3}, {shock, 4}, {marginal, 30}, {nan, 2}, {locked, 7}, {quiet, 20},
	}
	lengths := []int64{512, 4096, 3 * 4096, 64 << 10, 5*4096 + 100}
	for _, seed := range []int64{1, 7, 42} {
		p := newDrivePair(t, m, seed)
		ops := rand.New(rand.NewSource(seed))
		lockedOps, parkedOps, step := 0, 0, 0
		for _, ph := range phases {
			p.setVibration(ph.vib)
			for i := 0; i < ph.ops; i++ {
				op := OpRead
				if ops.Intn(2) == 0 {
					op = OpWrite
				}
				n := lengths[ops.Intn(len(lengths))]
				off := int64(ops.Intn(1<<12)) * 4096
				locked := p.got.vib.Amplitude >= m.ServoLockFrac
				switch res := p.access(t, step, op, off, n); {
				case errors.Is(res.Err, ErrHeadsParked):
					parkedOps++
				case locked:
					lockedOps++
				}
				p.sleep(time.Duration(ops.Intn(200)) * time.Millisecond)
				step++
			}
		}
		if lockedOps < 20 || parkedOps == 0 || p.got.stats.AdjacentCorruptions == 0 {
			t.Fatalf("seed %d: %d servo-locked and %d parked accesses, %d corruptions",
				seed, lockedOps, parkedOps, p.got.stats.AdjacentCorruptions)
		}
		if p.got.owed != 0 {
			t.Fatalf("seed %d: %d draws still owed after quiet accesses", seed, p.got.owed)
		}
		for i := 0; i < 100; i++ {
			if g, w := p.got.rng.Int63(), p.want.rng.Int63(); g != w {
				t.Fatalf("seed %d: rng draw %d after the run = %d, want %d", seed, i, g, w)
			}
		}
	}
}

// TestServoLockedAccessOwesDraws pins the fast path itself: a locked
// access draws nothing, fails with the full retry budget, and owes
// MaxRetries+1 draws until the next attempt pays them.
func TestServoLockedAccessOwesDraws(t *testing.T) {
	d, clock := newTestDrive(t)
	d.SetVibration(Vibration{Freq: 650, Amplitude: d.model.ServoLockFrac})
	start := clock.Nanos()
	res := d.Access(OpRead, 0, 64<<10)
	if !errors.Is(res.Err, ErrMediaTimeout) || res.Retries != d.model.MaxRetries {
		t.Fatalf("locked access = %+v, want a media timeout after %d retries", res, d.model.MaxRetries)
	}
	if got := time.Duration(clock.Nanos() - start); got != res.Latency {
		t.Fatalf("clock advanced %v, latency %v", got, res.Latency)
	}
	if want := int64(d.model.MaxRetries + 1); d.owed != want {
		t.Fatalf("owed = %d, want %d", d.owed, want)
	}
	d.SetVibration(Quiet())
	if res := d.Access(OpRead, 0, 4096); res.Err != nil {
		t.Fatal(res.Err)
	}
	if d.owed != 0 {
		t.Fatalf("owed = %d after an attempt, want 0", d.owed)
	}
	// The quiet access drew exactly the owed draws and its own one.
	ref := rand.New(rand.NewSource(1))
	for i := 0; i <= d.model.MaxRetries+1; i++ {
		ref.NormFloat64()
	}
	if g, w := d.rng.Int63(), ref.Int63(); g != w {
		t.Fatalf("next draw %d, want %d", g, w)
	}
}

package detect

import (
	"math/rand"
	"testing"
	"time"
)

// refDetector is the detector as it was before window entries became
// offsets: every entry keeps its time.Time and every evaluation rescans
// the window with time.Time.Sub.
type refDetector struct {
	cfg        config
	trainCount int
	trainSum   time.Duration
	baseline   time.Duration
	trainErrs  int
	failClosed bool
	window     []refEntry
	pos        int
	filled     bool
	alarms     int
	armed      bool
}

type refEntry struct {
	at        time.Time
	anomalous bool
}

func newRefDetector(cfg config) *refDetector {
	return &refDetector{cfg: cfg, window: make([]refEntry, cfg.windowOps)}
}

func (d *refDetector) trained() bool { return d.trainCount >= d.cfg.baselineOps }

func (d *refDetector) push(now time.Time, anomalous bool) {
	d.window[d.pos] = refEntry{at: now, anomalous: anomalous}
	d.pos = (d.pos + 1) % len(d.window)
	if d.pos == 0 {
		d.filled = true
	}
}

func (d *refDetector) observe(now time.Time, latency time.Duration, failed bool) {
	if !d.trained() {
		if failed {
			d.trainErrs++
			if d.failClosed {
				d.push(now, true)
			} else if d.trainErrs >= d.cfg.trainErrorBudget {
				d.failClosed = true
				for i := range d.window {
					d.window[i] = refEntry{at: now, anomalous: true}
				}
				d.pos = 0
				d.filled = true
			}
			d.tick(now)
			return
		}
		d.trainErrs = 0
		d.trainCount++
		d.trainSum += latency
		if d.trained() {
			d.baseline = d.trainSum / time.Duration(d.trainCount)
		}
		if d.failClosed {
			d.push(now, false)
		}
		d.tick(now)
		return
	}
	anomalous := failed ||
		latency > time.Duration(float64(d.baseline)*d.cfg.latencyFactor)
	d.push(now, anomalous)
	d.tick(now)
}

func (d *refDetector) live(now time.Time) (n, hits int) {
	limit := len(d.window)
	if !d.filled {
		limit = d.pos
	}
	for i := 0; i < limit; i++ {
		e := d.window[i]
		if d.cfg.expiry > 0 && now.Sub(e.at) > d.cfg.expiry {
			continue
		}
		n++
		if e.anomalous {
			hits++
		}
	}
	return n, hits
}

func (d *refDetector) suspicion(now time.Time) float64 {
	n, hits := d.live(now)
	if n == 0 {
		return 0
	}
	return float64(hits) / float64(n)
}

func (d *refDetector) attackSuspected(now time.Time) bool {
	if !d.trained() && !d.failClosed {
		return false
	}
	n, hits := d.live(now)
	if n < (len(d.window)+1)/2 {
		return false
	}
	return float64(hits)/float64(n) >= d.cfg.alarmThreshold
}

func (d *refDetector) tick(now time.Time) {
	suspected := d.attackSuspected(now)
	if suspected && !d.armed {
		d.alarms++
	}
	d.armed = suspected
}

// The offset-indexed detector must render exactly the verdicts of the
// time.Time rescan: random op streams whose times jitter backwards as
// well as forwards, short expiries that age entries out mid-stream (on a
// millisecond grid half the time, so entries land exactly on the expiry
// boundary), Expiry 0, and error bursts that fail training closed.
func TestDetectorMatchesTimeScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := time.Date(2023, time.July, 9, 0, 0, 0, 0, time.UTC)
	var failedClosed, alarmed, noExpiry, expired int
	for trial := 0; trial < 200; trial++ {
		quantum := time.Duration(1)
		if trial%2 == 0 {
			quantum = time.Millisecond
		}
		cfg := Config{
			BaselineOps:      Ptr(1 + rng.Intn(8)),
			WindowOps:        Ptr(1 + rng.Intn(12)),
			AlarmThreshold:   Ptr(0.25 + 0.75*rng.Float64()),
			Expiry:           Ptr(time.Duration(rng.Intn(4)) * time.Duration(rng.Int63n(int64(time.Second))).Truncate(quantum)),
			TrainErrorBudget: Ptr(1 + rng.Intn(6)),
		}
		if *cfg.Expiry == 0 {
			noExpiry++
		}
		d, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefDetector(d.cfg)
		now := base.Add(time.Duration(rng.Int63n(int64(time.Hour))))
		errRate := rng.Float64()
		for op := 0; op < 300; op++ {
			// Mostly forward steps; one in five jumps back.
			step := time.Duration(rng.Int63n(int64(200 * time.Millisecond))).Truncate(quantum)
			if rng.Intn(5) == 0 {
				step = -3 * step
			}
			now = now.Add(step)
			lat := time.Duration(1+rng.Intn(4)) * time.Millisecond
			if rng.Intn(6) == 0 {
				lat *= 100
			}
			failed := rng.Float64() < errRate
			d.Observe(now, lat, failed)
			ref.observe(now, lat, failed)
			q := now.Add((time.Duration(rng.Int63n(int64(4*time.Second))) - time.Second).Truncate(quantum))
			if d.Alarms != ref.alarms || d.failClosed != ref.failClosed ||
				d.Trained() != ref.trained() || d.baseline != ref.baseline ||
				d.Suspicion(q) != ref.suspicion(q) || d.AttackSuspected(q) != ref.attackSuspected(q) {
				t.Fatalf("trial %d op %d (cfg %+v): offset detector diverged from the time scan", trial, op, d.cfg)
			}
			if n, _ := ref.live(q); d.cfg.expiry > 0 && ref.filled && n < len(ref.window) {
				expired++
			}
		}
		if d.failClosed {
			failedClosed++
		}
		if d.Alarms > 0 {
			alarmed++
		}
	}
	if failedClosed == 0 || alarmed == 0 || noExpiry == 0 || expired == 0 {
		t.Fatalf("coverage: %d fail-closed, %d alarmed, %d Expiry-0 trials, %d expiring queries",
			failedClosed, alarmed, noExpiry, expired)
	}
}

// Observe runs once per block-device op, so it must not allocate.
func TestDetectorObserveAllocFree(t *testing.T) {
	d, err := NewDetector(Config{})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Unix(0, 0)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		at = at.Add(10 * time.Millisecond)
		d.Observe(at, 2*time.Millisecond, i%16 == 15)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkDetectorObserve(b *testing.B) {
	d, err := NewDetector(Config{})
	if err != nil {
		b.Fatal(err)
	}
	at := time.Unix(0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = at.Add(10 * time.Millisecond)
		// Mostly healthy 2 ms ops with periodic slow and failed ones.
		lat := 2 * time.Millisecond
		if i%8 == 7 {
			lat = 500 * time.Millisecond
		}
		d.Observe(at, lat, i%16 == 15)
	}
}

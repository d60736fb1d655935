// Package detect is the operator-side counterpart of the attack: an
// anomaly detector that watches a drive's externally observable telemetry
// (request latency and errors) and raises an alarm when the signature of
// acoustic interference appears — latencies inflating by orders of
// magnitude and I/O errors clustering, long before the ~80 s crash horizon
// of Table 3. The paper's §5 calls for exactly this kind of monitoring
// groundwork for subsea platforms.
//
// The latency/error Detector is one factor; the spectral Fingerprinter
// (fingerprint.go) watches the synthesized drive-tray vibration stream for
// narrowband tones in the servo-vulnerable band, and Fused combines both
// into a single per-verdict confidence.
package detect

import (
	"fmt"
	"math"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/simclock"
)

// Config tunes the latency/error detector. All fields follow the repo's
// pointer convention: nil means the documented default, an explicit value
// is validated and honored (a Config{WindowOps: Ptr(1)} really is a
// one-op window — it is not silently replaced by the default).
type Config struct {
	// BaselineOps is how many initial healthy operations train the
	// latency baseline. Nil = 64; must be ≥ 1.
	BaselineOps *int
	// WindowOps is the sliding window the suspicion score is computed
	// over. Nil = 32; must be ≥ 1.
	WindowOps *int
	// LatencyFactor flags an op as anomalous when it exceeds the
	// baseline mean by this factor. Nil = 8; must be finite and > 0.
	LatencyFactor *float64
	// AlarmThreshold is the window fraction of anomalous ops that raises
	// the alarm. Nil = 0.5; must be in (0, 1].
	AlarmThreshold *float64
	// Expiry bounds how long a window entry stays evidence: entries
	// older than Expiry no longer count toward suspicion, so an alarm
	// armed during an attack decays once I/O quiesces instead of
	// latching forever. It must comfortably exceed WindowOps × the
	// worst-case op latency (a failed op burns ~0.5 s in media-timeout
	// retries, so a 32-op window of pure failures spans ~17 s) or the
	// live quorum can never fill under exactly the attack the detector
	// exists to catch. Nil = 30 s; Ptr(0) disables expiry (the pure
	// ops-window behavior) and is honored; must be ≥ 0.
	Expiry *time.Duration
	// TrainErrorBudget fails training closed: a device that errors this
	// many times consecutively before a baseline exists is declared
	// under attack rather than silently never trained. Nil = 32; must
	// be ≥ 1.
	TrainErrorBudget *int
}

// config is the resolved concrete form of Config.
type config struct {
	baselineOps      int
	windowOps        int
	latencyFactor    float64
	alarmThreshold   float64
	expiry           time.Duration
	trainErrorBudget int
}

// finitePositive reports whether x is a finite number above zero; NaN and
// ±Inf fail.
func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

func (c Config) resolve() (config, error) {
	r := config{
		baselineOps:      64,
		windowOps:        32,
		latencyFactor:    8,
		alarmThreshold:   0.5,
		expiry:           30 * time.Second,
		trainErrorBudget: 32,
	}
	if c.BaselineOps != nil {
		if *c.BaselineOps < 1 {
			return r, fmt.Errorf("detect: BaselineOps %d must be ≥ 1", *c.BaselineOps)
		}
		r.baselineOps = *c.BaselineOps
	}
	if c.WindowOps != nil {
		if *c.WindowOps < 1 {
			return r, fmt.Errorf("detect: WindowOps %d must be ≥ 1", *c.WindowOps)
		}
		r.windowOps = *c.WindowOps
	}
	if c.LatencyFactor != nil {
		if !finitePositive(*c.LatencyFactor) {
			return r, fmt.Errorf("detect: LatencyFactor %g must be finite and > 0", *c.LatencyFactor)
		}
		r.latencyFactor = *c.LatencyFactor
	}
	if c.AlarmThreshold != nil {
		if !(*c.AlarmThreshold > 0 && *c.AlarmThreshold <= 1) {
			return r, fmt.Errorf("detect: AlarmThreshold %g must be in (0, 1]", *c.AlarmThreshold)
		}
		r.alarmThreshold = *c.AlarmThreshold
	}
	if c.Expiry != nil {
		if *c.Expiry < 0 {
			return r, fmt.Errorf("detect: Expiry %v must be ≥ 0", *c.Expiry)
		}
		r.expiry = *c.Expiry
	}
	if c.TrainErrorBudget != nil {
		if *c.TrainErrorBudget < 1 {
			return r, fmt.Errorf("detect: TrainErrorBudget %d must be ≥ 1", *c.TrainErrorBudget)
		}
		r.trainErrorBudget = *c.TrainErrorBudget
	}
	return r, nil
}

// windowEntry is one observed operation: when it happened, as an offset
// from the detector's first observation, and whether it looked anomalous.
type windowEntry struct {
	at        time.Duration
	anomalous bool
}

// Detector scores a stream of (time, latency, error) observations.
type Detector struct {
	cfg config

	trainCount int
	trainSum   time.Duration
	baseline   time.Duration
	trainErrs  int // consecutive failures while untrained
	failClosed bool

	// origin is the first observation's time; window entries and expiry
	// cutoffs are offsets from it, so the per-op expiry scan compares
	// integers. Offsets are time.Time.Sub results: exact for times within
	// ±292 years of origin, saturating beyond.
	origin  time.Time
	started bool
	window  []windowEntry
	pos     int
	filled  bool

	// Alarms counts rising edges of the alarm condition.
	Alarms int
	armed  bool
}

// NewDetector returns an untrained detector, rejecting out-of-range
// configuration.
func NewDetector(cfg Config) (*Detector, error) {
	r, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	return &Detector{cfg: r, window: make([]windowEntry, r.windowOps)}, nil
}

// Trained reports whether the latency baseline is established.
func (d *Detector) Trained() bool { return d.trainCount >= d.cfg.baselineOps }

// ready reports whether the detector can render verdicts: either a
// baseline exists or training failed closed.
func (d *Detector) ready() bool { return d.Trained() || d.failClosed }

func (d *Detector) push(at time.Duration, anomalous bool) {
	d.window[d.pos] = windowEntry{at: at, anomalous: anomalous}
	d.pos = (d.pos + 1) % len(d.window)
	if d.pos == 0 {
		d.filled = true
	}
}

// Observe feeds one operation's outcome into the detector.
func (d *Detector) Observe(now time.Time, latency time.Duration, failed bool) {
	if !d.started {
		d.origin, d.started = now, true
	}
	at := now.Sub(d.origin)
	if !d.Trained() {
		if failed {
			d.trainErrs++
			if d.failClosed {
				// Already failed closed: keep scoring errors so the
				// alarm reflects the device's current state.
				d.push(at, true)
			} else if d.trainErrs >= d.cfg.trainErrorBudget {
				// A device unhealthy from boot never trains; fail
				// closed and alarm rather than stay silent forever.
				d.failClosed = true
				for i := range d.window {
					d.window[i] = windowEntry{at: at, anomalous: true}
				}
				d.pos = 0
				d.filled = true
			}
			d.Tick(now)
			return
		}
		// Healthy op: baseline material, and it resets the consecutive-
		// error budget. In fail-closed mode it also ages the alarm out.
		d.trainErrs = 0
		d.trainCount++
		d.trainSum += latency
		if d.Trained() {
			d.baseline = d.trainSum / time.Duration(d.trainCount)
		}
		if d.failClosed {
			d.push(at, false)
		}
		d.Tick(now)
		return
	}
	anomalous := failed ||
		latency > time.Duration(float64(d.baseline)*d.cfg.latencyFactor)
	d.push(at, anomalous)
	d.Tick(now)
}

// live counts the window entries still in evidence at now (unexpired),
// and how many of those are anomalous.
func (d *Detector) live(now time.Time) (n, hits int) {
	limit := len(d.window)
	if !d.filled {
		limit = d.pos
	}
	// An entry has expired when now − at > expiry, that is when at lies
	// before cutoff = now − expiry. A cutoff below the Duration range
	// expires nothing, and neither does the maximal expiry, which no
	// time.Time.Sub result exceeds.
	expire := d.cfg.expiry > 0 && d.cfg.expiry < math.MaxInt64 && limit > 0
	var cutoff time.Duration
	if expire {
		nowAt := now.Sub(d.origin)
		expire = nowAt >= math.MinInt64+d.cfg.expiry
		cutoff = nowAt - d.cfg.expiry
	}
	for i := 0; i < limit; i++ {
		e := d.window[i]
		if expire && e.at < cutoff {
			continue
		}
		n++
		if e.anomalous {
			hits++
		}
	}
	return n, hits
}

// Suspicion returns the anomalous fraction of the unexpired window as of
// now. Entries older than the configured Expiry have aged out of
// evidence, so suspicion decays to zero once I/O quiesces.
func (d *Detector) Suspicion(now time.Time) float64 {
	n, hits := d.live(now)
	if n == 0 {
		return 0
	}
	return float64(hits) / float64(n)
}

// AttackSuspected reports whether the unexpired window crosses the alarm
// threshold with a quorum of at least half the window still in evidence —
// a single stale sample (or a freshly trained detector) cannot alarm.
func (d *Detector) AttackSuspected(now time.Time) bool {
	if !d.ready() {
		return false
	}
	n, hits := d.live(now)
	if n < (len(d.window)+1)/2 {
		return false
	}
	return float64(hits)/float64(n) >= d.cfg.alarmThreshold
}

// Tick re-evaluates the alarm edge at now without observing an op. Call
// it from an idle poll loop so alarms clear when I/O has quiesced and the
// window evidence expires.
func (d *Detector) Tick(now time.Time) {
	suspected := d.AttackSuspected(now)
	if suspected && !d.armed {
		d.Alarms++
	}
	d.armed = suspected
}

// Monitor wraps a block device, feeding every operation through a
// Detector. It implements blockdev.Device, so it slots transparently
// under a filesystem or workload.
type Monitor struct {
	dev   blockdev.Device
	clock *simclock.Virtual
	det   *Detector
}

// NewMonitor wraps dev with telemetry-driven attack detection, rejecting
// out-of-range configuration.
func NewMonitor(dev blockdev.Device, clock *simclock.Virtual, cfg Config) (*Monitor, error) {
	det, err := NewDetector(cfg)
	if err != nil {
		return nil, err
	}
	return &Monitor{dev: dev, clock: clock, det: det}, nil
}

// Detector exposes the underlying detector.
func (m *Monitor) Detector() *Detector { return m.det }

// Suspicion returns the detector's current suspicion at the monitor's
// clock.
func (m *Monitor) Suspicion() float64 { return m.det.Suspicion(m.clock.Now()) }

// ReadAt implements blockdev.Device.
func (m *Monitor) ReadAt(p []byte, off int64) (int, error) {
	start := m.clock.Now()
	n, err := m.dev.ReadAt(p, off)
	m.det.Observe(m.clock.Now(), m.clock.Now().Sub(start), err != nil)
	return n, err
}

// WriteAt implements blockdev.Device.
func (m *Monitor) WriteAt(p []byte, off int64) (int, error) {
	start := m.clock.Now()
	n, err := m.dev.WriteAt(p, off)
	m.det.Observe(m.clock.Now(), m.clock.Now().Sub(start), err != nil)
	return n, err
}

// Flush implements blockdev.Device.
func (m *Monitor) Flush() error {
	start := m.clock.Now()
	err := m.dev.Flush()
	m.det.Observe(m.clock.Now(), m.clock.Now().Sub(start), err != nil)
	return err
}

// Size implements blockdev.Device.
func (m *Monitor) Size() int64 { return m.dev.Size() }

var _ blockdev.Device = (*Monitor)(nil)

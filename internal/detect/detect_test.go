package detect

import (
	"math"
	"testing"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/simclock"
)

func newMonitored(t *testing.T) (*Monitor, *hdd.Drive, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 41)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(blockdev.NewDisk(drive), clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m, drive, clock
}

func seqWrite(m *Monitor, n int) {
	buf := make([]byte, 4096)
	var off int64
	for i := 0; i < n; i++ {
		m.WriteAt(buf, off)
		off += 4096
	}
}

func TestDetectorTrainsOnHealthyTraffic(t *testing.T) {
	m, _, _ := newMonitored(t)
	seqWrite(m, 80)
	d := m.Detector()
	if !d.Trained() {
		t.Fatal("detector should be trained after 80 ops")
	}
	if d.baseline <= 0 || d.baseline > 5*time.Millisecond {
		t.Fatalf("baseline = %v", d.baseline)
	}
	if m.det.AttackSuspected(m.clock.Now()) {
		t.Fatal("healthy traffic raised an alarm")
	}
	if m.Suspicion() != 0 {
		t.Fatalf("suspicion = %v on healthy traffic", m.Suspicion())
	}
}

func TestDetectorRaisesAlarmUnderAttack(t *testing.T) {
	m, drive, _ := newMonitored(t)
	seqWrite(m, 80) // train
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 0.25})
	seqWrite(m, 40)
	d := m.Detector()
	if !m.det.AttackSuspected(m.clock.Now()) {
		t.Fatalf("attack not detected; suspicion %.2f", m.Suspicion())
	}
	if d.Alarms != 1 {
		t.Fatalf("alarms = %d, want 1 rising edge", d.Alarms)
	}
}

func TestDetectorDetectsDeadDriveFast(t *testing.T) {
	m, drive, _ := newMonitored(t)
	seqWrite(m, 80)
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	// Every op now errors; the alarm must fire well within the ≈80 s
	// crash horizon of Table 3.
	start := m.clock.Now()
	seqWrite(m, 40)
	if !m.det.AttackSuspected(m.clock.Now()) {
		t.Fatal("dead drive not detected")
	}
	if elapsed := m.clock.Now().Sub(start); elapsed > 60*time.Second {
		t.Fatalf("detection took %v, want well under the crash horizon", elapsed)
	}
}

func TestDetectorClearsAfterAttack(t *testing.T) {
	m, drive, _ := newMonitored(t)
	seqWrite(m, 80)
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 0.25})
	seqWrite(m, 40)
	if !m.det.AttackSuspected(m.clock.Now()) {
		t.Fatal("attack not detected")
	}
	drive.SetVibration(hdd.Quiet())
	seqWrite(m, 64) // window refills with healthy ops
	if m.det.AttackSuspected(m.clock.Now()) {
		t.Fatal("alarm stuck after attack ended")
	}
	// A second attack raises a second alarm edge.
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 0.25})
	seqWrite(m, 40)
	if m.Detector().Alarms != 2 {
		t.Fatalf("alarms = %d, want 2", m.Detector().Alarms)
	}
}

// Regression (zero-vs-unset satellite): explicit low-but-valid values must
// be honored, not silently replaced by defaults, and out-of-range values
// must be rejected instead of clamped.
func TestConfigPointerSemantics(t *testing.T) {
	d, err := NewDetector(Config{WindowOps: Ptr(1), BaselineOps: Ptr(1), AlarmThreshold: Ptr(1.0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.window) != 1 {
		t.Fatalf("explicit WindowOps 1 resolved to %d", len(d.window))
	}
	now := time.Unix(0, 0)
	d.Observe(now, time.Millisecond, false) // trains in one op
	if !d.Trained() {
		t.Fatal("explicit BaselineOps 1 must train after one op")
	}
	// LatencyFactor below 1 is unusual but valid: flags anything slower
	// than a fraction of baseline.
	if _, err := NewDetector(Config{LatencyFactor: Ptr(0.5)}); err != nil {
		t.Fatalf("explicit LatencyFactor 0.5 rejected: %v", err)
	}
	// Expiry 0 = never expire is a meaningful setting and honored.
	d0, err := NewDetector(Config{Expiry: Ptr(time.Duration(0))})
	if err != nil {
		t.Fatal(err)
	}
	if d0.cfg.expiry != 0 {
		t.Fatalf("explicit Expiry 0 resolved to %v", d0.cfg.expiry)
	}

	bad := []Config{
		{BaselineOps: Ptr(0)},
		{WindowOps: Ptr(0)},
		{WindowOps: Ptr(-3)},
		{LatencyFactor: Ptr(0.0)},
		{LatencyFactor: Ptr(-1.0)},
		{AlarmThreshold: Ptr(0.0)},
		{AlarmThreshold: Ptr(1.5)},
		{Expiry: Ptr(-time.Second)},
		{TrainErrorBudget: Ptr(0)},
		// A NaN threshold can never be crossed, so the detector would
		// fail open; non-finite floats are rejected outright.
		{LatencyFactor: Ptr(math.NaN())},
		{LatencyFactor: Ptr(math.Inf(1))},
		{AlarmThreshold: Ptr(math.NaN())},
	}
	for i, cfg := range bad {
		if _, err := NewDetector(cfg); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
	clock := simclock.NewVirtual()
	if _, err := NewMonitor(nil, clock, Config{WindowOps: Ptr(0)}); err == nil {
		t.Fatal("NewMonitor accepted a bad config")
	}
}

// Regression (alarm-latch satellite): once I/O quiesces, window evidence
// must expire so suspicion decays and the alarm edge falls; a later
// attack raises a fresh rising edge.
func TestAlarmDecaysWhenIdle(t *testing.T) {
	m, drive, clock := newMonitored(t)
	seqWrite(m, 80)
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 0.25})
	seqWrite(m, 40)
	if !m.det.AttackSuspected(m.clock.Now()) {
		t.Fatal("attack not detected")
	}
	if m.Detector().Alarms != 1 {
		t.Fatalf("alarms = %d", m.Detector().Alarms)
	}
	// The attack ends AND the workload stops — no ops refill the window.
	drive.SetVibration(hdd.Quiet())
	clock.Sleep(40 * time.Second) // past the default 30 s expiry
	if m.det.AttackSuspected(m.clock.Now()) {
		t.Fatal("alarm latched after I/O quiesced (stale window evidence)")
	}
	if m.Suspicion() != 0 {
		t.Fatalf("suspicion froze at %.2f after quiesce", m.Suspicion())
	}
	m.det.Tick(m.clock.Now()) // idle poll observes the falling edge
	// Second attack: a fresh rising edge.
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 0.25})
	seqWrite(m, 40)
	if m.Detector().Alarms != 2 {
		t.Fatalf("alarms = %d, want 2 (rising/falling/rising)", m.Detector().Alarms)
	}
	// Expiry 0 keeps the old ops-window semantics: evidence never ages.
	d, err := NewDetector(Config{BaselineOps: Ptr(1), WindowOps: Ptr(4), Expiry: Ptr(time.Duration(0))})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	d.Observe(now, time.Millisecond, false)
	for i := 0; i < 4; i++ {
		d.Observe(now, time.Millisecond, true)
	}
	if !d.AttackSuspected(now.Add(time.Hour)) {
		t.Fatal("Expiry 0 must never expire evidence")
	}
}

// Regression (fail-closed satellite): a device erroring from boot never
// trains a baseline — it must alarm after the training error budget
// instead of staying silent forever.
func TestTrainingFailsClosed(t *testing.T) {
	d, err := NewDetector(Config{TrainErrorBudget: Ptr(8)})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	for i := 0; i < 7; i++ {
		d.Observe(now, time.Second, true)
		now = now.Add(time.Millisecond)
	}
	if d.AttackSuspected(now) {
		t.Fatal("alarmed before the error budget")
	}
	d.Observe(now, time.Second, true) // 8th consecutive error
	if !d.failClosed {
		t.Fatal("training did not fail closed")
	}
	if !d.AttackSuspected(now) {
		t.Fatal("fail-closed must raise the alarm")
	}
	if d.Alarms != 1 {
		t.Fatalf("alarms = %d, want 1", d.Alarms)
	}
	if d.Trained() {
		t.Fatal("fail-closed is not a trained baseline")
	}
	// The device comes back: healthy ops age the alarm out and complete
	// training normally.
	for i := 0; i < 80; i++ {
		now = now.Add(time.Millisecond)
		d.Observe(now, time.Millisecond, false)
	}
	if !d.Trained() {
		t.Fatal("recovery must complete training")
	}
	if d.AttackSuspected(now) {
		t.Fatal("alarm stuck after the device recovered")
	}
	// Scattered errors (interleaved with successes) never trip the
	// budget: only consecutive errors mean unhealthy-from-boot.
	d2, err := NewDetector(Config{BaselineOps: Ptr(64), TrainErrorBudget: Ptr(4)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ { // 80 healthy ops — enough to finish training
		d2.Observe(now, time.Second, true)
		d2.Observe(now, time.Millisecond, false)
		d2.Observe(now, time.Millisecond, false)
	}
	if d2.failClosed {
		t.Fatal("interleaved errors must not fail training closed")
	}
	if !d2.Trained() {
		t.Fatal("healthy majority must train")
	}
	if d2.baseline != time.Millisecond {
		t.Fatalf("errors polluted the baseline: %v", d2.baseline)
	}
}

func TestDetectorNeedsHalfWindowBeforeAlarming(t *testing.T) {
	d, err := NewDetector(Config{BaselineOps: Ptr(2), WindowOps: Ptr(10)})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(0, 0)
	d.Observe(now, time.Millisecond, false)
	d.Observe(now, time.Millisecond, false)
	// One anomalous op right after training must not alarm.
	d.Observe(now, time.Second, false)
	if d.AttackSuspected(now) {
		t.Fatal("single sample alarmed")
	}
}

func TestMonitorPassesThroughData(t *testing.T) {
	m, _, _ := newMonitored(t)
	data := []byte("telemetry must not corrupt data")
	if _, err := m.WriteAt(data, 12345); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := m.ReadAt(got, 12345); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("monitor corrupted data path")
	}
	if m.Size() <= 0 {
		t.Fatal("size passthrough")
	}
	if err := m.Flush(); err != nil {
		t.Fatal(err)
	}
}

// Ptr returns a pointer to v — shorthand for the optional config fields.
func Ptr[T any](v T) *T { return &v }

package netstore

import (
	"errors"
	"testing"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

func newServer(t *testing.T, cfg Config) (*Server, *hdd.Drive, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 31)
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(blockdev.NewDisk(drive), clock, cfg), drive, clock
}

func TestHealthyRequests(t *testing.T) {
	s, _, _ := newServer(t, Config{})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	r := s.Handle(Get, 7)
	if r.Err != nil {
		t.Fatalf("get: %v", r.Err)
	}
	// Latency ≈ net RTT + storage (64 KiB ≈ 0.7 ms + seek).
	if r.Latency < time.Millisecond || r.Latency > 50*time.Millisecond {
		t.Fatalf("latency = %v", r.Latency)
	}
	w := s.Handle(Put, 7)
	if w.Err != nil {
		t.Fatalf("put: %v", w.Err)
	}
}

func TestBadRequest(t *testing.T) {
	s, _, _ := newServer(t, Config{})
	if r := s.Handle(Get, -1); !errors.Is(r.Err, ErrBadRequest) {
		t.Fatalf("negative id: %v", r.Err)
	}
	if r := s.Handle(Get, 1<<20); !errors.Is(r.Err, ErrBadRequest) {
		t.Fatalf("huge id: %v", r.Err)
	}
	if s.Errors != 2 {
		t.Fatalf("errors = %d", s.Errors)
	}
}

func TestAttackTurnsIntoVisibleFailures(t *testing.T) {
	s, drive, _ := newServer(t, Config{Timeout: time.Second})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	base := s.Handle(Put, 2).Latency
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	r := s.Handle(Put, 3)
	if r.Err == nil {
		t.Fatal("put under full attack should fail")
	}
	if s.Timeouts+s.Errors == 0 {
		t.Fatal("failure not counted")
	}
	// The failure is externally visible through latency too: the drive
	// burned its whole retry budget first.
	if r.Latency < 10*base {
		t.Fatalf("latency = %v, want well above baseline %v", r.Latency, base)
	}
}

func TestSlowCompletionClassifiedAsTimeout(t *testing.T) {
	// A request that exceeds the server budget is a timeout to the
	// client even when the storage eventually answers.
	s, drive, _ := newServer(t, Config{Timeout: 100 * time.Millisecond})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 0.2})
	sawTimeout := false
	for i := 0; i < 40 && !sawTimeout; i++ {
		r := s.Handle(Put, i)
		if errors.Is(r.Err, ErrTimeout) {
			sawTimeout = true
		}
	}
	if !sawTimeout {
		t.Fatal("no request exceeded the 100 ms budget under moderate attack")
	}
}

func TestModerateAttackRaisesLatencyWithoutTimeout(t *testing.T) {
	s, drive, _ := newServer(t, Config{})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	base := s.Handle(Put, 5).Latency
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 0.17})
	slow := s.Handle(Put, 6)
	if slow.Err != nil {
		t.Fatalf("moderate attack should not time out: %v", slow.Err)
	}
	if slow.Latency < 2*base {
		t.Fatalf("latency %v should visibly exceed baseline %v", slow.Latency, base)
	}
}

func TestConfigDefaults(t *testing.T) {
	s, _, _ := newServer(t, Config{})
	cfg := s.Config()
	if cfg.ObjectSize != 64<<10 || cfg.Objects != 1024 || cfg.Timeout != 5*time.Second {
		t.Fatalf("defaults: %+v", cfg)
	}
}

func TestHandleObjectRoundTrip(t *testing.T) {
	s, _, _ := newServer(t, Config{ObjectSize: 4096})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i * 17)
	}
	if _, r := s.HandleObjectShared(Put, 3, payload); r.Err != nil {
		t.Fatalf("put: %v", r.Err)
	}
	got, r := s.HandleObjectShared(Get, 3, nil)
	if r.Err != nil {
		t.Fatalf("get: %v", r.Err)
	}
	if len(got) != 4096 {
		t.Fatalf("got %d bytes, want the full object size", len(got))
	}
	for i := range got {
		want := byte(0) // PUT zero-pads short payloads to the object size
		if i < len(payload) {
			want = payload[i]
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestHandleObjectOversizedPayloadRejected(t *testing.T) {
	s, _, _ := newServer(t, Config{ObjectSize: 4096})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	if _, r := s.HandleObjectShared(Put, 0, make([]byte, 4097)); !errors.Is(r.Err, ErrBadRequest) {
		t.Fatalf("oversized put: %v", r.Err)
	}
}

// TestHandleObjectMatchesHandleTiming pins that the payload path is
// timing-identical to the fixed-pattern path: Handle is HandleObjectShared
// with a nil payload, so both see the same RNG draws and latencies.
func TestHandleObjectMatchesHandleTiming(t *testing.T) {
	a, _, _ := newServer(t, Config{Seed: 9})
	b, _, _ := newServer(t, Config{Seed: 9})
	if err := a.Preload(); err != nil {
		t.Fatal(err)
	}
	if err := b.Preload(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ra := a.Handle(Get, i)
		_, rb := b.HandleObjectShared(Get, i, nil)
		if ra.Latency != rb.Latency || (ra.Err == nil) != (rb.Err == nil) {
			t.Fatalf("object %d: Handle %+v != HandleObjectShared %+v", i, ra, rb)
		}
	}
}

// TestInternalErrorText: a storage failure inside the budget reaches the
// client as the fixed internal-error text, unchanged by sharing one
// error value.
func TestInternalErrorText(t *testing.T) {
	s, drive, _ := newServer(t, Config{Timeout: time.Hour})
	if err := s.Preload(); err != nil {
		t.Fatal(err)
	}
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	for _, op := range []Op{Get, Put} {
		_, r := s.HandleObjectShared(op, 1, nil)
		if r.Err == nil || r.Err.Error() != "netstore: internal storage error" {
			t.Fatalf("%v under attack: err %v, want the internal storage error", op, r.Err)
		}
		if errors.Is(r.Err, ErrTimeout) || errors.Is(r.Err, blockdev.ErrIO) {
			t.Fatalf("%v: internal error %v wraps a classified error", op, r.Err)
		}
	}
	if s.Errors != 2 {
		t.Fatalf("Errors = %d, want 2", s.Errors)
	}
}

func TestNetstorePublishMetrics(t *testing.T) {
	s, _, _ := newServer(t, Config{})
	s.Handle(Put, 1)
	s.Handle(Get, 1)
	s.Handle(Get, -1)
	reg := metrics.NewRegistry()
	s.PublishMetrics(reg)
	snap := reg.Snapshot()
	if snap.Counters["netstore.requests"] != 3 || snap.Counters["netstore.errors"] != 1 {
		t.Fatalf("snapshot: %+v", snap.Counters)
	}
	if _, ok := snap.Counters["netstore.timeouts"]; !ok {
		t.Fatalf("key netstore.timeouts missing from snapshot: %+v", snap.Counters)
	}
	s.PublishMetrics(nil) // must not panic
}

package osmodel

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"deepnote/internal/hdd"
	"deepnote/internal/jfs"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

func TestReadFailureDmesgWording(t *testing.T) {
	// Regression: page-in (read-path) failures used to log the writeback
	// message "lost async page write". The kernel says "async page read"
	// for reads.
	r := newRig(t, Config{})
	r.disk.Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	if pageInOK(r.srv) {
		t.Fatal("attacked read should fail")
	}
	dmesg := strings.Join(r.srv.dmesg.Lines(), "\n")
	if !strings.Contains(dmesg, "async page read (") {
		t.Fatalf("read failure missing read wording:\n%s", dmesg)
	}
	if strings.Contains(dmesg, "lost async page write") {
		t.Fatalf("read failure logged write wording:\n%s", dmesg)
	}
}

func TestWriteFailureDmesgWordingAndCounters(t *testing.T) {
	r := newRig(t, Config{})
	r.disk.Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	// Force a log flush (write path) without any page-in: advance less
	// than a page-in interval past the log deadline is impossible (log
	// interval > page-in interval), so call the flush directly.
	r.srv.flushLog()
	if r.srv.LogErrors != 1 {
		t.Fatalf("log errors = %d", r.srv.LogErrors)
	}
	// Bugfix: write-path failures must not count as page-in errors.
	if r.srv.PageInErrors != 0 {
		t.Fatalf("write failure counted as page-in error (%d)", r.srv.PageInErrors)
	}
	dmesg := strings.Join(r.srv.dmesg.Lines(), "\n")
	if !strings.Contains(dmesg, "lost async page write (var_syslog)") {
		t.Fatalf("write failure missing write wording:\n%s", dmesg)
	}
	if strings.Contains(dmesg, "async page read") {
		t.Fatalf("write failure logged read wording:\n%s", dmesg)
	}
}

func TestCrashThresholdExactBoundary(t *testing.T) {
	// The crash rule is >= CrashThreshold of continuous failure: one
	// nanosecond under must stay alive, the exact boundary must crash.
	r := newRig(t, Config{CrashThreshold: 10 * time.Second})
	cause := fmt.Errorf("boundary probe")
	r.srv.criticalFailure(cause) // opens the failure window
	r.clock.Sleep(10*time.Second - time.Nanosecond)
	r.srv.criticalFailure(cause)
	if crashed, _ := r.srv.Crashed(); crashed {
		t.Fatal("crashed one nanosecond before the threshold")
	}
	r.clock.Sleep(time.Nanosecond)
	r.srv.criticalFailure(cause)
	crashed, err := r.srv.Crashed()
	if !crashed {
		t.Fatal("failure window exactly equal to CrashThreshold must crash")
	}
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash error = %v", err)
	}
	if r.srv.Hangs != 1 {
		t.Fatalf("hangs = %d, want one continuous episode", r.srv.Hangs)
	}
}

func TestDmesgRingAtCapacity(t *testing.T) {
	d := NewDmesg(4)
	base := simclock.NewVirtual().Now()
	// Exactly at capacity: nothing evicted.
	for i := 0; i < 4; i++ {
		d.Logf(base, "line %d", i)
	}
	lines := d.Lines()
	if len(lines) != 4 || !strings.Contains(lines[0], "line 0") {
		t.Fatalf("at capacity: %v", lines)
	}
	// One past capacity: exactly the oldest line goes.
	d.Logf(base, "line 4")
	lines = d.Lines()
	if len(lines) != 4 {
		t.Fatalf("ring grew past capacity: %d lines", len(lines))
	}
	if !strings.Contains(lines[0], "line 1") || !strings.Contains(lines[3], "line 4") {
		t.Fatalf("wrong wraparound: %v", lines)
	}
}

func TestWatchdogRebootsThroughRecoveryChain(t *testing.T) {
	r := newRig(t, Config{CrashThreshold: 15 * time.Second})
	recovers := 0
	wd := NewWatchdog(r.disk, r.clock, Config{CrashThreshold: 15 * time.Second}, WatchdogConfig{
		OnRecover: func(fs *jfs.FS) error { recovers++; return nil },
	})
	wd.Adopt(r.srv, r.fs)

	// Prolonged attack: the OS crashes, and reboot attempts keep failing
	// while the drive is unreachable.
	r.disk.Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	for i := 0; i < 200; i++ {
		r.clock.Sleep(250 * time.Millisecond)
		wd.Server().Step()
		wd.Step()
	}
	if crashed, _ := wd.Server().Crashed(); !crashed {
		t.Fatal("server should be down during the attack")
	}
	if wd.FailedReboots == 0 {
		t.Fatal("reboot attempts during the attack should fail")
	}
	if wd.Reboots != 0 {
		t.Fatal("no reboot can succeed while the device is unreachable")
	}

	// Attack ends: the next attempt walks the whole chain and succeeds.
	r.disk.Drive().SetVibration(hdd.Quiet())
	for i := 0; i < 60; i++ {
		r.clock.Sleep(250 * time.Millisecond)
		wd.Server().Step()
		wd.Step()
	}
	if wd.Reboots != 1 {
		t.Fatalf("reboots = %d, failed = %d", wd.Reboots, wd.FailedReboots)
	}
	if crashed, _ := wd.Server().Crashed(); crashed {
		t.Fatal("recovered server reports crashed")
	}
	if wd.Server() == r.srv {
		t.Fatal("watchdog did not replace the crashed server")
	}
	if wd.Downtime <= 0 {
		t.Fatalf("downtime = %v", wd.Downtime)
	}
	if recovers != 1 {
		t.Fatalf("recovers = %d, want 1", recovers)
	}
	// The recovered system pages in again.
	if !pageInOK(wd.Server()) {
		t.Fatal("page-in fails after recovery")
	}
	dmesg := strings.Join(wd.Server().dmesg.Lines(), "\n")
	if !strings.Contains(dmesg, "watchdog: system recovered") {
		t.Fatalf("recovery banner missing:\n%s", dmesg)
	}
}

func TestWatchdogPublishMetrics(t *testing.T) {
	r := newRig(t, Config{})
	wd := NewWatchdog(r.disk, r.clock, Config{}, WatchdogConfig{})
	wd.Adopt(r.srv, r.fs)
	reg := metrics.NewRegistry()
	wd.PublishMetrics(reg)
	snap := reg.Snapshot()
	for _, key := range []string{
		"osmodel.watchdog.reboots", "osmodel.watchdog.failed_reboots",
		"osmodel.watchdog.downtime_ns_total",
	} {
		if _, ok := snap.Counters[key]; !ok {
			t.Fatalf("key %s missing", key)
		}
	}
	wd.PublishMetrics(nil) // must not panic
}

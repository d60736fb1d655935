package faultinj

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

func newDisk(t *testing.T) (*blockdev.Disk, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 7)
	if err != nil {
		t.Fatal(err)
	}
	return blockdev.NewDisk(drive), clock
}

func TestPassthroughWithoutFaults(t *testing.T) {
	disk, clock := newDisk(t)
	dev := Wrap(disk, clock)
	data := []byte("payload survives the wrapper")
	if _, err := dev.WriteAt(data, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := dev.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("passthrough corrupted data")
	}
	if err := dev.Flush(); err != nil {
		t.Fatal(err)
	}
	if dev.Size() != disk.Size() {
		t.Fatal("size not forwarded")
	}
	s := dev.stats
	if s.Reads != 1 || s.Writes != 1 || s.Flushes != 1 || injected(s) != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestTransientWindowInjectsOnlyInside(t *testing.T) {
	disk, clock := newDisk(t)
	dev := Wrap(disk, clock, Fault{
		Kind: TransientError, Start: 10 * time.Second, Duration: 5 * time.Second,
	})
	buf := make([]byte, 512)
	if _, err := dev.WriteAt(buf, 0); err != nil {
		t.Fatalf("write before window: %v", err)
	}
	clock.Sleep(12 * time.Second)
	if _, err := dev.WriteAt(buf, 0); !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("write inside window: %v", err)
	}
	if _, err := dev.ReadAt(buf, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("read inside window: %v", err)
	}
	if err := dev.Flush(); !errors.Is(err, ErrInjected) {
		t.Fatalf("flush inside window: %v", err)
	}
	clock.Sleep(5 * time.Second)
	if _, err := dev.WriteAt(buf, 0); err != nil {
		t.Fatalf("write after window: %v", err)
	}
	if s := dev.stats; s.InjectedWriteErrs != 1 || s.InjectedReadErrs != 1 || s.InjectedFlushErrs != 1 {
		t.Fatalf("injected errors = %+v, want one of each", s)
	}
}

func TestComposesWithAcousticAttack(t *testing.T) {
	// The wrapper passes the drive's own (attack-induced) errors through
	// unchanged while contributing its own schedule.
	disk, clock := newDisk(t)
	dev := Wrap(disk, clock) // no rules
	disk.Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	if _, err := dev.WriteAt(make([]byte, 512), 0); !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("attacked write through wrapper: %v", err)
	}
	if injected(dev.stats) != 0 {
		t.Fatal("drive error miscounted as injected")
	}
}

func TestPublishMetrics(t *testing.T) {
	disk, clock := newDisk(t)
	dev := Wrap(disk, clock, Fault{Kind: TransientError, Duration: time.Hour})
	_, _ = dev.WriteAt(make([]byte, 512), 0)
	clock.Sleep(2 * time.Hour)
	_, _ = dev.ReadAt(make([]byte, 512), 0)
	reg := metrics.NewRegistry()
	dev.PublishMetrics(reg)
	snap := reg.Snapshot()
	if snap.Counters["faultinj.injected_write_errors"] != 1 || snap.Counters["faultinj.injected_read_errors"] != 0 {
		t.Fatalf("snapshot: %+v", snap.Counters)
	}
	for _, key := range []string{"faultinj.torn_writes", "faultinj.stuck_ios", "faultinj.latency_spikes"} {
		if v, ok := snap.Counters[key]; !ok || v != 0 {
			t.Fatalf("%s = %d (present %v), want a published 0", key, v, ok)
		}
	}
	if snap.Counters["faultinj.reads"] != 1 || snap.Counters["faultinj.writes"] != 1 {
		t.Fatalf("snapshot traffic: %+v", snap.Counters)
	}
	dev.PublishMetrics(nil) // must not panic
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		TransientError: "transient-error",
		Kind(4):        "kind(4)",
	} {
		if k.String() != want {
			t.Fatalf("%d: %q", int(k), k.String())
		}
	}
}

// injected returns the total injected error count.
func injected(s Stats) int64 {
	return s.InjectedReadErrs + s.InjectedWriteErrs + s.InjectedFlushErrs
}

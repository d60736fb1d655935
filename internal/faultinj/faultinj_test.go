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
	dev := Wrap(disk, clock, 1)
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
	dev := Wrap(disk, clock, 1, Fault{
		Kind: TransientError, Ops: OpWrite,
		Start: 10 * time.Second, Duration: 5 * time.Second,
	})
	buf := make([]byte, 512)
	if _, err := dev.WriteAt(buf, 0); err != nil {
		t.Fatalf("write before window: %v", err)
	}
	clock.Sleep(12 * time.Second)
	if _, err := dev.WriteAt(buf, 0); !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("write inside window: %v", err)
	}
	if _, err := dev.ReadAt(buf, 0); err != nil {
		t.Fatalf("read untargeted by write fault: %v", err)
	}
	clock.Sleep(5 * time.Second)
	if _, err := dev.WriteAt(buf, 0); err != nil {
		t.Fatalf("write after window: %v", err)
	}
	if got := dev.stats.InjectedWriteErrs; got != 1 {
		t.Fatalf("injected write errors = %d", got)
	}
}

func TestPermanentErrorNeverRecovers(t *testing.T) {
	disk, clock := newDisk(t)
	dev := Wrap(disk, clock, 1, Fault{Kind: PermanentError, Start: time.Second})
	buf := make([]byte, 512)
	clock.Sleep(2 * time.Second)
	for i := 0; i < 3; i++ {
		clock.Sleep(time.Hour)
		if _, err := dev.ReadAt(buf, 0); !errors.Is(err, ErrInjected) {
			t.Fatalf("permanent fault recovered: %v", err)
		}
	}
	if err := dev.Flush(); !errors.Is(err, blockdev.ErrIO) {
		t.Fatalf("flush on dead device: %v", err)
	}
}

func TestLatencySpikeChargesTimeAndSucceeds(t *testing.T) {
	disk, clock := newDisk(t)
	dev := Wrap(disk, clock, 1, Fault{
		Kind: LatencySpike, Ops: OpRead, Duration: time.Hour, Extra: 3 * time.Second,
	})
	buf := make([]byte, 512)
	before := clock.Now()
	if _, err := dev.ReadAt(buf, 0); err != nil {
		t.Fatalf("latency spike should succeed: %v", err)
	}
	if elapsed := clock.Now().Sub(before); elapsed < 3*time.Second {
		t.Fatalf("spike charged only %v", elapsed)
	}
	if dev.stats.LatencySpikes != 1 {
		t.Fatal("spike not counted")
	}
}

func TestStuckIOHangsThenFails(t *testing.T) {
	disk, clock := newDisk(t)
	dev := Wrap(disk, clock, 1, Fault{
		Kind: StuckIO, Ops: OpWrite, Duration: time.Hour, Extra: 30 * time.Second,
	})
	before := clock.Now()
	if _, err := dev.WriteAt(make([]byte, 512), 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("stuck write returned %v", err)
	}
	if elapsed := clock.Now().Sub(before); elapsed < 30*time.Second {
		t.Fatalf("stuck I/O charged only %v", elapsed)
	}
}

func TestTornWritePersistsPrefixOnly(t *testing.T) {
	disk, clock := newDisk(t)
	dev := Wrap(disk, clock, 1, Fault{Kind: TornWrite, Ops: OpWrite, Duration: time.Hour})
	data := bytes.Repeat([]byte{0xAB}, 4096)
	n, err := dev.WriteAt(data, 0)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write returned %v", err)
	}
	if n != len(data)/2 {
		t.Fatalf("torn write reported %d bytes", n)
	}
	// The prefix landed on media, the suffix did not.
	got := make([]byte, 4096)
	if _, err := disk.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:2048], data[:2048]) {
		t.Fatal("torn prefix missing")
	}
	if bytes.Equal(got[2048:], data[2048:]) {
		t.Fatal("torn suffix landed in full")
	}
	if dev.stats.TornWrites != 1 {
		t.Fatal("torn write not counted")
	}
}

func TestProbabilisticFaultIsSeedDeterministic(t *testing.T) {
	run := func() []bool {
		disk, clock := newDisk(t)
		dev := Wrap(disk, clock, 99, Fault{
			Kind: TransientError, Ops: OpWrite, Duration: time.Hour, Probability: 0.5,
		})
		out := make([]bool, 40)
		buf := make([]byte, 512)
		for i := range out {
			_, err := dev.WriteAt(buf, 0)
			out[i] = err != nil
		}
		return out
	}
	a, b := run(), run()
	failures := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between identical seeds", i)
		}
		if a[i] {
			failures++
		}
	}
	if failures == 0 || failures == len(a) {
		t.Fatalf("probability 0.5 produced %d/%d failures", failures, len(a))
	}
}

func TestComposesWithAcousticAttack(t *testing.T) {
	// The wrapper passes the drive's own (attack-induced) errors through
	// unchanged while contributing its own schedule.
	disk, clock := newDisk(t)
	dev := Wrap(disk, clock, 1) // no rules
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
	dev := Wrap(disk, clock, 1, Fault{Kind: TransientError, Ops: OpWrite, Duration: time.Hour})
	_, _ = dev.WriteAt(make([]byte, 512), 0)
	_, _ = dev.ReadAt(make([]byte, 512), 0)
	reg := metrics.NewRegistry()
	dev.PublishMetrics(reg)
	snap := reg.Snapshot()
	if snap.Counters["faultinj.injected_write_errors"] != 1 {
		t.Fatalf("snapshot: %+v", snap.Counters)
	}
	if snap.Counters["faultinj.reads"] != 1 || snap.Counters["faultinj.writes"] != 1 {
		t.Fatalf("snapshot traffic: %+v", snap.Counters)
	}
	dev.PublishMetrics(nil) // must not panic
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		TransientError: "transient-error",
		PermanentError: "permanent-error",
		LatencySpike:   "latency-spike",
		TornWrite:      "torn-write",
		StuckIO:        "stuck-io",
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

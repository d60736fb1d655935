package raid

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/simclock"
)

// newMembers builds n independent simulated drives on one clock.
func newMembers(t *testing.T, n int) ([]*blockdev.Disk, []blockdev.Device, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual()
	disks := make([]*blockdev.Disk, n)
	devs := make([]blockdev.Device, n)
	for i := range disks {
		drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, int64(21+i))
		if err != nil {
			t.Fatal(err)
		}
		disks[i] = blockdev.NewDisk(drive)
		devs[i] = disks[i]
	}
	return disks, devs, clock
}

func TestNewValidation(t *testing.T) {
	_, devs, _ := newMembers(t, 3)
	if _, err := New(RAID0, devs[:1]); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("RAID0 with 1 member: %v", err)
	}
	if _, err := New(RAID5, devs[:2]); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("RAID5 with 2 members: %v", err)
	}
	if _, err := New(Level(7), devs); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown level: %v", err)
	}
	if RAID5.String() != "RAID-5" {
		t.Fatal("level string")
	}
}

func TestSizes(t *testing.T) {
	_, devs, _ := newMembers(t, 4)
	member := devs[0].Size() - devs[0].Size()%StripeSize
	r0, _ := New(RAID0, devs)
	if r0.Size() != 4*member {
		t.Fatalf("RAID0 size = %d", r0.Size())
	}
	r1, _ := New(RAID1, devs)
	if r1.Size() != member {
		t.Fatalf("RAID1 size = %d", r1.Size())
	}
	r5, _ := New(RAID5, devs)
	if r5.Size() != 3*member {
		t.Fatalf("RAID5 size = %d", r5.Size())
	}
}

func roundTrip(t *testing.T, a *Array, data []byte, off int64) {
	t.Helper()
	if _, err := a.WriteAt(data, off); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, off); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestRoundTripAllLevels(t *testing.T) {
	for _, level := range []Level{RAID0, RAID1, RAID5} {
		_, devs, _ := newMembers(t, 4)
		a, err := New(level, devs)
		if err != nil {
			t.Fatal(err)
		}
		// Cross several stripes and start unaligned.
		data := bytes.Repeat([]byte{0x5A, 0x3C}, 3*StripeSize/2)
		roundTrip(t, a, data, StripeSize/2+17)
		if !a.Healthy() {
			t.Fatalf("%v: array unhealthy after clean ops", level)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	_, devs, _ := newMembers(t, 3)
	a, err := New(RAID5, devs)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(data []byte, offRaw uint32) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(offRaw % (4 << 20))
		if _, err := a.WriteAt(data, off); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := a.ReadAt(got, off); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRAID1SurvivesOneDeadMirror(t *testing.T) {
	disks, devs, _ := newMembers(t, 2)
	a, _ := New(RAID1, devs)
	data := []byte("mirrored payload")
	roundTrip(t, a, data, 0)
	// Kill mirror 0 with heavy vibration. Each read fails over to mirror 1;
	// the error-threshold policy ejects mirror 0 only after FailThreshold
	// consecutive errors.
	disks[0].Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	got := make([]byte, len(data))
	for i := 0; i < FailThreshold; i++ {
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatalf("read %d with one dead mirror: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("mirror fail-over returned wrong data")
		}
	}
	if len(a.FailedMembers()) != 1 {
		t.Fatalf("failed members = %v", a.FailedMembers())
	}
	if !a.Healthy() {
		t.Fatal("RAID1 should survive one mirror")
	}
	if a.Stats().MemberFailures != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
}

func TestRAID1SurvivesBoundedAcousticBurst(t *testing.T) {
	// Regression for the transient-vs-permanent bugfix: a burst shorter
	// than the fail threshold must not eject a member; the chunks it missed
	// are tracked as stale.
	disks, devs, _ := newMembers(t, 2)
	a, _ := New(RAID1, devs)
	data := bytes.Repeat([]byte{0xC3}, 8192)
	roundTrip(t, a, data, 0)

	// Burst: two consecutive failed writes on mirror 0 — below threshold.
	disks[0].Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	update := bytes.Repeat([]byte{0x3C}, 8192)
	for i := 0; i < FailThreshold-1; i++ {
		if _, err := a.WriteAt(update, 0); err != nil {
			t.Fatalf("write during burst: %v", err)
		}
	}
	if n := len(a.FailedMembers()); n != 0 {
		t.Fatalf("bounded burst ejected %d members", n)
	}
	if a.StaleChunks() == 0 {
		t.Fatal("burst should have left mirror 0 stale")
	}
}

func TestRAID1StaleMirrorNotReadUntilRepaired(t *testing.T) {
	disks, devs, _ := newMembers(t, 2)
	a, _ := New(RAID1, devs)
	data := bytes.Repeat([]byte{0x01}, 4096)
	roundTrip(t, a, data, 0)
	// Mirror 0 misses an acknowledged write.
	disks[0].Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	update := bytes.Repeat([]byte{0x02}, 4096)
	if _, err := a.WriteAt(update, 0); err != nil {
		t.Fatalf("write with one vibrating mirror: %v", err)
	}
	disks[0].Drive().SetVibration(hdd.Quiet())
	// Reads must come from mirror 1 (fresh), not mirror 0 (stale).
	got := make([]byte, len(update))
	for i := 0; i < 5; i++ {
		if _, err := a.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, update) {
			t.Fatal("read served stale mirror data")
		}
	}
}

func TestRAID5ReconstructsFromParity(t *testing.T) {
	disks, devs, _ := newMembers(t, 3)
	a, _ := New(RAID5, devs)
	data := bytes.Repeat([]byte{7, 11, 13}, StripeSize) // multiple stripes
	roundTrip(t, a, data, 0)
	// Kill one member, then read everything back through reconstruction.
	disks[1].Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("parity reconstruction returned wrong data")
	}
	if !a.Healthy() {
		t.Fatal("RAID5 should survive one member")
	}
}

func TestRAID0DiesWithAnyMember(t *testing.T) {
	disks, devs, _ := newMembers(t, 3)
	a, _ := New(RAID0, devs)
	data := bytes.Repeat([]byte{1}, 4*StripeSize)
	roundTrip(t, a, data, 0)
	disks[2].Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	got := make([]byte, len(data))
	if _, err := a.ReadAt(got, 0); !errors.Is(err, ErrDegraded) {
		t.Fatalf("RAID0 with dead member: %v", err)
	}
	if a.Healthy() {
		t.Fatal("RAID0 cannot be healthy with a failed member")
	}
}

func TestCommonModeAttackDefeatsAllRedundancy(t *testing.T) {
	// The deployment lesson: when every member shares the enclosure, the
	// acoustic attack hits them all, and no RAID level survives.
	for _, level := range []Level{RAID1, RAID5} {
		disks, devs, _ := newMembers(t, 3)
		a, _ := New(level, devs)
		data := bytes.Repeat([]byte{9}, StripeSize)
		roundTrip(t, a, data, 0)
		for _, d := range disks {
			d.Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
		}
		if _, err := a.WriteAt(data, 0); !errors.Is(err, ErrDegraded) {
			t.Fatalf("%v: common-mode write survived: %v", level, err)
		}
	}
}

func TestRAID5DegradedWrite(t *testing.T) {
	disks, devs, _ := newMembers(t, 3)
	a, _ := New(RAID5, devs)
	seed := bytes.Repeat([]byte{0xEE}, 2*StripeSize)
	roundTrip(t, a, seed, 0)
	// One member dies; writes must still land (data or parity leg).
	disks[0].Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	update := bytes.Repeat([]byte{0x55}, StripeSize)
	if _, err := a.WriteAt(update, 0); err != nil {
		t.Fatalf("degraded write: %v", err)
	}
	// Member 0 holds row 0's parity, so it missed the parity update.
	if a.StaleChunks() == 0 {
		t.Fatal("missed parity update should be stale")
	}
	got := make([]byte, len(update))
	if _, err := a.ReadAt(got, 0); err != nil {
		t.Fatalf("read after degraded write: %v", err)
	}
	if !bytes.Equal(got, update) {
		t.Fatal("degraded write lost data")
	}
}

func TestOutOfRange(t *testing.T) {
	_, devs, _ := newMembers(t, 2)
	a, _ := New(RAID1, devs)
	buf := make([]byte, 8)
	if _, err := a.ReadAt(buf, -1); err == nil {
		t.Fatal("negative read accepted")
	}
	if _, err := a.WriteAt(buf, a.Size()); err == nil {
		t.Fatal("overflow write accepted")
	}
}

func TestFlush(t *testing.T) {
	disks, devs, _ := newMembers(t, 2)
	a, _ := New(RAID1, devs)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, d := range disks {
		d.Drive().SetVibration(hdd.Vibration{Freq: 650, Amplitude: 3})
	}
	if err := a.Flush(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("flush with all members dead: %v", err)
	}
}

func TestRAID5ParityInvariantProperty(t *testing.T) {
	// After any write pattern, XOR across all members at every stripe row
	// must be zero — the invariant reconstruction depends on.
	disks, devs, _ := newMembers(t, 3)
	a, err := New(RAID5, devs)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(data []byte, offRaw uint32) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(offRaw % (2 << 20))
		if _, err := a.WriteAt(data, off); err != nil {
			return false
		}
		// Check parity over the rows the write touched.
		firstRow := (off / StripeSize) / 2 * StripeSize
		lastRow := ((off + int64(len(data))) / StripeSize / 2) * StripeSize
		for row := firstRow; row <= lastRow; row += StripeSize {
			acc := make([]byte, StripeSize)
			buf := make([]byte, StripeSize)
			for _, m := range disks {
				if _, err := m.ReadAt(buf, row); err != nil {
					return false
				}
				for i := range acc {
					acc[i] ^= buf[i]
				}
			}
			for _, b := range acc {
				if b != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

package osmodel

import (
	"errors"
	"strings"
	"testing"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/jfs"
	"deepnote/internal/simclock"
)

type rig struct {
	clock *simclock.Virtual
	disk  *blockdev.Disk
	drive *hdd.Drive
	fs    *jfs.FS
	srv   *Server
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 17)
	if err != nil {
		t.Fatal(err)
	}
	disk := blockdev.NewDisk(drive)
	if err := jfs.Mkfs(disk, jfs.MkfsOptions{Blocks: 1 << 16}); err != nil {
		t.Fatal(err)
	}
	fs, err := jfs.Mount(disk, clock, jfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Boot(fs, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, disk: disk, drive: drive, fs: fs, srv: srv}
}

func TestBootInstallsSystemFiles(t *testing.T) {
	r := newRig(t, Config{})
	names := r.fs.List()
	joined := strings.Join(names, " ")
	for _, want := range []string{"bin_ls", "bin_sh", "lib_libc", "var_syslog"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing system file %s in %v", want, names)
		}
	}
	if crashed, _ := r.srv.Crashed(); crashed {
		t.Fatal("fresh server crashed")
	}
	if len(r.srv.dmesg.Lines()) == 0 {
		t.Fatal("boot should log to dmesg")
	}
}

func TestHealthyServerRuns(t *testing.T) {
	r := newRig(t, Config{})
	for i := 0; i < 120; i++ {
		r.clock.Sleep(500 * time.Millisecond)
		r.srv.Step()
	}
	if crashed, _ := r.srv.Crashed(); crashed {
		t.Fatal("healthy server crashed")
	}
	if r.srv.PageIns == 0 || r.srv.LogWrites == 0 {
		t.Fatalf("periodic work did not run: %d page-ins, %d log writes", r.srv.PageIns, r.srv.LogWrites)
	}
	if r.srv.PageInErrors != 0 {
		t.Fatalf("unexpected I/O errors: %d", r.srv.PageInErrors)
	}
}

func TestCrashUnderProlongedAttack(t *testing.T) {
	// Table 3's Ubuntu row: buffer I/O errors accumulate until the OS
	// dies after ≈ the crash threshold, the paper's ≈81 s.
	r := newRig(t, Config{})
	attackStart := r.clock.Now()
	r.drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	for i := 0; i < 600; i++ {
		r.clock.Sleep(250 * time.Millisecond)
		r.srv.Step()
		if crashed, _ := r.srv.Crashed(); crashed {
			break
		}
	}
	crashed, crashErr := r.srv.Crashed()
	if !crashed {
		t.Fatal("server did not crash under attack")
	}
	if !errors.Is(crashErr, ErrCrashed) {
		t.Fatalf("crash error = %v", crashErr)
	}
	ttc := r.srv.CrashedAt().Sub(attackStart)
	if ttc < crashThreshold || ttc > crashThreshold+15*time.Second {
		t.Fatalf("time to crash = %v, want ≈ threshold", ttc)
	}
	dmesg := strings.Join(r.srv.dmesg.Lines(), "\n")
	if !strings.Contains(dmesg, "Buffer I/O error on dev sda1") {
		t.Fatal("dmesg missing buffer I/O errors")
	}
	if !strings.Contains(dmesg, "Kernel panic") {
		t.Fatal("dmesg missing panic line")
	}
}

// TestLsFailsDuringAttackBeforeCrash: the paper's `ls` stops working
// under attack long before the crash; here a page-in of a system binary
// fails while the server is still up.
func TestLsFailsDuringAttackBeforeCrash(t *testing.T) {
	r := newRig(t, Config{})
	r.drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	if pageInOK(r.srv) {
		t.Fatal("page-in succeeded during the attack")
	}
	if crashed, _ := r.srv.Crashed(); crashed {
		t.Fatal("one failed page-in crashed the server")
	}
}

func TestRecoveryIfAttackStops(t *testing.T) {
	r := newRig(t, Config{})
	r.drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	for i := 0; i < 10; i++ {
		r.clock.Sleep(500 * time.Millisecond)
		r.srv.Step()
	}
	if r.srv.PageInErrors == 0 {
		t.Fatal("expected I/O errors during attack")
	}
	r.drive.SetVibration(hdd.Quiet())
	for i := 0; i < 10; i++ {
		r.clock.Sleep(time.Second)
		r.srv.Step()
	}
	if crashed, _ := r.srv.Crashed(); crashed {
		t.Fatal("server crashed despite recovery")
	}
	if !pageInOK(r.srv) {
		t.Fatal("page-in fails after recovery")
	}
}

func TestStepBeforeBootAndAfterCrashIsSafe(t *testing.T) {
	var s Server
	s.Step() // must not panic
	if s.PageIns != 0 || s.LogWrites != 0 {
		t.Fatalf("unbooted server did work: %d page-ins, %d log writes", s.PageIns, s.LogWrites)
	}
}

func TestDmesgRingEviction(t *testing.T) {
	d := NewDmesg(3)
	// Drive the ring off the virtual clock, not time.Now(): wall-clock
	// reads make the test's timestamps scheduling-dependent under a
	// parallel `go test`, and this package must stay hermetic.
	base := simclock.NewVirtual().Now()
	for i := 0; i < 5; i++ {
		d.Logf(base, "line %d", i)
	}
	lines := d.Lines()
	if len(lines) != 3 {
		t.Fatalf("ring size = %d, want 3", len(lines))
	}
	if !strings.Contains(lines[0], "line 2") || !strings.Contains(lines[2], "line 4") {
		t.Fatalf("wrong eviction: %v", lines)
	}
}

func TestBootIdempotentAcrossRemount(t *testing.T) {
	r := newRig(t, Config{})
	if err := r.fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := jfs.Mount(r.disk, r.clock, jfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := Boot(fs2, r.clock, Config{})
	if err != nil {
		t.Fatalf("reboot on existing root: %v", err)
	}
	if !pageInOK(srv2) {
		t.Fatal("page-in fails after reboot")
	}
}

// pageInOK runs one page-in and reports whether it succeeded.
func pageInOK(s *Server) bool {
	before := s.PageInErrors
	s.pageIn()
	return s.PageInErrors == before
}

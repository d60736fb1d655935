package jfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/simclock"
)

func newFS(t *testing.T) (*FS, *blockdev.Disk, *hdd.Drive, *simclock.Virtual) {
	t.Helper()
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 9)
	if err != nil {
		t.Fatal(err)
	}
	disk := blockdev.NewDisk(drive)
	if err := Mkfs(disk, MkfsOptions{Blocks: 65536}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(disk, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return fs, disk, drive, clock
}

func TestMkfsAndMount(t *testing.T) {
	fs, _, _, _ := newFS(t)
	sb := fs.Superblock()
	if sb.Magic != Magic {
		t.Fatal("bad magic after mount")
	}
	if sb.State != StateDirty {
		t.Fatalf("mounted state = %d, want dirty", sb.State)
	}
	if sb.MountCount != 1 {
		t.Fatalf("mount count = %d, want 1", sb.MountCount)
	}
	if len(fs.List()) != 0 {
		t.Fatal("fresh filesystem should be empty")
	}
}

func TestMkfsTooSmall(t *testing.T) {
	clock := simclock.NewVirtual()
	drive, _ := hdd.NewDrive(hdd.Barracuda500(), clock, 9)
	disk := blockdev.NewDisk(drive)
	if err := Mkfs(disk, MkfsOptions{Blocks: 100}); err == nil {
		t.Fatal("expected error for undersized filesystem")
	}
}

func TestMountRejectsUnformattedDevice(t *testing.T) {
	clock := simclock.NewVirtual()
	drive, _ := hdd.NewDrive(hdd.Barracuda500(), clock, 9)
	disk := blockdev.NewDisk(drive)
	if _, err := Mount(disk, clock, Config{}); err == nil {
		t.Fatal("expected error mounting unformatted device")
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, err := fs.Create("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("underwater data centers hum at 650 Hz")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
	if f.Size() != int64(len(data)) {
		t.Fatalf("size = %d, want %d", f.Size(), len(data))
	}
}

func TestCreateValidation(t *testing.T) {
	fs, _, _, _ := newFS(t)
	if _, err := fs.Create(""); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("empty name: %v", err)
	}
	if _, err := fs.Create("this-name-is-way-too-long-for-jfs"); !errors.Is(err, ErrNameTooLong) {
		t.Fatalf("long name: %v", err)
	}
	if _, err := fs.Create("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("a"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate: %v", err)
	}
}

func TestOpenMissing(t *testing.T) {
	fs, _, _, _ := newFS(t)
	if _, err := fs.Open("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestRemoveFreesSpace(t *testing.T) {
	fs, _, _, _ := newFS(t)
	before := fs.Fsck().FreeBlocks
	f, _ := fs.Create("big")
	if _, err := f.WriteAt(bytes.Repeat([]byte{1}, 10*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	during := fs.Fsck().FreeBlocks
	if during >= before {
		t.Fatal("write did not consume blocks")
	}
	if err := fs.Remove("big"); err != nil {
		t.Fatal(err)
	}
	after := fs.Fsck().FreeBlocks
	if after != before {
		t.Fatalf("remove did not free all blocks: %d -> %d -> %d", before, during, after)
	}
	if err := fs.Remove("big"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second remove: %v", err)
	}
}

func TestLargeFileUsesIndirectBlocks(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("large")
	data := bytes.Repeat([]byte{0xCD}, (NDirect+5)*BlockSize)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("indirect round trip mismatch")
	}
	if fs.inodes[f.ino].Indirect == 0 {
		t.Fatal("expected indirect block allocation")
	}
}

func TestFileTooLarge(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("huge")
	if _, err := f.WriteAt([]byte{1}, MaxFileSize); !errors.Is(err, ErrFileTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("sparse")
	if _, err := f.WriteAt([]byte("end"), 5*BlockSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 16)
	if _, err := f.ReadAt(got, BlockSize); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("hole should read zeros")
		}
	}
}

func TestReadPastEOF(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("short")
	f.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if n != 3 || err != io.EOF {
		t.Fatalf("n=%d err=%v, want 3, EOF", n, err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Fatalf("fully past EOF: %v", err)
	}
}

func TestAppend(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("log")
	f.Append([]byte("one "))
	f.Append([]byte("two"))
	got := make([]byte, 7)
	f.ReadAt(got, 0)
	if string(got) != "one two" {
		t.Fatalf("append result %q", got)
	}
}

func TestTruncate(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("t")
	f.WriteAt(bytes.Repeat([]byte{7}, 4*BlockSize), 0)
	free := fs.Fsck().FreeBlocks
	if err := f.Truncate(BlockSize); err != nil {
		t.Fatal(err)
	}
	if f.Size() != BlockSize {
		t.Fatalf("size after truncate = %d", f.Size())
	}
	if fs.Fsck().FreeBlocks != free+3 {
		t.Fatalf("truncate freed %d blocks, want 3", fs.Fsck().FreeBlocks-free)
	}
	if err := f.Truncate(-1); err == nil {
		t.Fatal("negative truncate accepted")
	}
}

func TestPersistenceAcrossRemount(t *testing.T) {
	fs, disk, _, clock := newFS(t)
	f, _ := fs.Create("persist")
	data := []byte("survives remount")
	f.WriteAt(data, 0)
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(disk, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.Open("persist")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f2.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("remount round trip: %q", got)
	}
	if fs2.Superblock().MountCount != 2 {
		t.Fatalf("mount count = %d, want 2", fs2.Superblock().MountCount)
	}
}

func TestJournalReplayAfterCrash(t *testing.T) {
	// Sync (journal commit) then remount WITHOUT unmounting: committed
	// metadata must survive via journal + checkpoint.
	fs, disk, _, clock := newFS(t)
	f, _ := fs.Create("committed")
	f.WriteAt([]byte("durable"), 0)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Simulated crash: no unmount, just a fresh mount.
	fs2, err := Mount(disk, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := fs2.Open("committed")
	if err != nil {
		t.Fatalf("committed file lost after crash: %v", err)
	}
	got := make([]byte, 7)
	f2.ReadAt(got, 0)
	if string(got) != "durable" {
		t.Fatalf("content %q", got)
	}
}

func TestUncommittedMetadataLostAfterCrash(t *testing.T) {
	fs, disk, _, clock := newFS(t)
	f, _ := fs.Create("volatile")
	f.WriteAt([]byte("gone"), 0)
	// No sync, no unmount, commit interval not reached: metadata only in
	// memory.
	fs2, err := Mount(disk, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Open("volatile"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("uncommitted file visible after crash: %v", err)
	}
}

func TestBackgroundCommitRunsOnInterval(t *testing.T) {
	fs, _, _, clock := newFS(t)
	f, _ := fs.Create("bg")
	f.WriteAt([]byte("x"), 0)
	if fs.CommitAttempts != 0 {
		t.Fatalf("commit ran too early: %d", fs.CommitAttempts)
	}
	clock.Sleep(6 * time.Second)
	fs.Tick()
	if fs.CommitAttempts != 1 {
		t.Fatalf("commit attempts = %d, want 1", fs.CommitAttempts)
	}
}

func TestJournalAbortUnderProlongedAttack(t *testing.T) {
	// The Table 3 mechanism: the attack blocks all I/O; the journal
	// cannot commit; after the stall limit the journal aborts with the
	// JBD -5 signature.
	fs, _, drive, clock := newFS(t)
	f, _ := fs.Create("victim")
	if _, err := f.WriteAt([]byte("dirty"), 0); err != nil {
		t.Fatal(err)
	}
	attackStart := clock.Now()
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	for i := 0; i < 1000; i++ {
		clock.Sleep(time.Second)
		fs.Tick()
		if aborted, _ := fs.Aborted(); aborted {
			break
		}
	}
	aborted, abortErr := fs.Aborted()
	if !aborted {
		t.Fatal("journal did not abort under attack")
	}
	if !errors.Is(abortErr, ErrAborted) {
		t.Fatalf("abort error = %v", abortErr)
	}
	if want := "error -5"; !errorContains(abortErr, want) {
		t.Fatalf("abort error %q missing %q", abortErr, want)
	}
	elapsed := fs.CrashedAt().Sub(attackStart)
	if elapsed < stallLimit || elapsed > stallLimit+2*commitInterval {
		t.Fatalf("time to crash = %v, want ≈ stall limit", elapsed)
	}
	// Writes now fail with the abort error.
	if _, err := f.WriteAt([]byte("more"), 0); !errors.Is(err, ErrAborted) {
		t.Fatalf("write after abort: %v", err)
	}
	if _, err := fs.Create("another"); !errors.Is(err, ErrAborted) {
		t.Fatalf("create after abort: %v", err)
	}
}

func errorContains(err error, sub string) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte(sub))
}

func TestCommitRecoversAfterShortAttack(t *testing.T) {
	fs, _, drive, clock := newFS(t)
	f, _ := fs.Create("resilient")
	f.WriteAt([]byte("data"), 0)
	drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	for i := 0; i < 12; i++ {
		clock.Sleep(time.Second)
		fs.Tick()
	}
	if fs.CommitFailures == 0 {
		t.Fatal("expected commit failures during attack")
	}
	drive.SetVibration(hdd.Quiet())
	clock.Sleep(commitInterval)
	fs.Tick()
	if aborted, _ := fs.Aborted(); aborted {
		t.Fatal("journal aborted despite attack ending inside the stall limit")
	}
	if err := fs.Sync(); err != nil {
		t.Fatalf("sync after recovery: %v", err)
	}
}

func TestUnmountedOperationsFail(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("x")
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("y"); !errors.Is(err, ErrNotMounted) {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.WriteAt([]byte("z"), 0); !errors.Is(err, ErrNotMounted) {
		t.Fatalf("write: %v", err)
	}
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrNotMounted) {
		t.Fatalf("read: %v", err)
	}
	if err := fs.Unmount(); !errors.Is(err, ErrNotMounted) {
		t.Fatalf("double unmount: %v", err)
	}
}

func TestWriteReadPropertyRandomOffsets(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("prop")
	prop := func(data []byte, offRaw uint16) bool {
		if len(data) == 0 {
			return true
		}
		off := int64(offRaw) // keeps the file within direct+indirect reach
		if _, err := f.WriteAt(data, off); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if _, err := f.ReadAt(got, off); err != nil && err != io.EOF {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSuperblockRoundTrip(t *testing.T) {
	sb := Superblock{
		Magic: Magic, TotalBlocks: 1000, JournalStart: 1, JournalBlocks: 64,
		BitmapStart: 65, BitmapBlocks: 1, InodeStart: 66, InodeBlocks: 8,
		DataStart: 90, InodeCount: 256, State: StateDirty, MountCount: 3,
	}
	got, err := decodeSuperblock(sb.encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != sb {
		t.Fatalf("round trip: %+v != %+v", *got, sb)
	}
	if _, err := decodeSuperblock(make([]byte, BlockSize)); err == nil {
		t.Fatal("zero block accepted as superblock")
	}
}

func TestInodeRoundTrip(t *testing.T) {
	in := Inode{Used: true, Size: 123456, Indirect: 999}
	for i := range in.Direct {
		in.Direct[i] = uint64(i * 7)
	}
	buf := make([]byte, InodeSize)
	in.encode(buf)
	if got := decodeInode(buf); got != in {
		t.Fatalf("round trip: %+v != %+v", got, in)
	}
}

func TestDirentRoundTrip(t *testing.T) {
	d := Dirent{Used: true, Ino: 42, Name: "rocksdb.wal"}
	buf := make([]byte, DirentSize)
	d.encode(buf)
	if got := decodeDirent(buf); got != d {
		t.Fatalf("round trip: %+v != %+v", got, d)
	}
}

func TestDirentNameTruncatedAtLimit(t *testing.T) {
	d := Dirent{Used: true, Ino: 1, Name: "0123456789012345678901234567"} // 28 > 24
	buf := make([]byte, DirentSize)
	d.encode(buf)
	got := decodeDirent(buf)
	if len(got.Name) != MaxNameLen {
		t.Fatalf("name length = %d, want %d", len(got.Name), MaxNameLen)
	}
}

func TestJournalRecordRoundTrips(t *testing.T) {
	blocks := []uint64{10, 20, 30}
	desc := encodeDescriptor(7, blocks)
	seq, got, ok := decodeDescriptor(desc)
	if !ok || seq != 7 || len(got) != 3 || got[2] != 30 {
		t.Fatalf("descriptor round trip: %v %v %v", seq, got, ok)
	}
	if _, _, ok := decodeDescriptor(make([]byte, BlockSize)); ok {
		t.Fatal("zero block accepted as descriptor")
	}
	images := [][]byte{make([]byte, BlockSize), make([]byte, BlockSize), make([]byte, BlockSize)}
	sum := txChecksum(blocks, images)
	cseq, csum, ok := decodeCommit(encodeCommit(7, sum))
	if !ok || cseq != 7 || csum != sum {
		t.Fatal("commit round trip failed")
	}
	images[1][5] = 0xFF
	if txChecksum(blocks, images) == sum {
		t.Fatal("checksum ignores image content")
	}
}

func TestListSorted(t *testing.T) {
	fs, _, _, _ := newFS(t)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := fs.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

func TestManyFilesAndCommits(t *testing.T) {
	fs, _, _, clock := newFS(t)
	for i := 0; i < 50; i++ {
		name := string(rune('a'+i%26)) + string(rune('0'+i/26))
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{byte(i)}, 2*BlockSize), 0); err != nil {
			t.Fatal(err)
		}
		clock.Sleep(time.Second)
		fs.Tick()
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := len(fs.List()); got != 50 {
		t.Fatalf("files = %d, want 50", got)
	}
	if fs.CommitAttempts == 0 {
		t.Fatal("expected background commits")
	}
}

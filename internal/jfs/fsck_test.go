package jfs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestFsckCleanOnFreshFS(t *testing.T) {
	fs, _, _, _ := newFS(t)
	rep := fs.Fsck()
	if !rep.Clean {
		t.Fatalf("fresh fs dirty: %v", rep.Problems)
	}
	if rep.Files != 0 || rep.UsedBlocks != 0 {
		t.Fatalf("fresh fs accounting: %+v", rep)
	}
}

func TestFsckCleanAfterWorkload(t *testing.T) {
	fs, _, _, clock := newFS(t)
	for i := 0; i < 20; i++ {
		f, err := fs.Create(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{byte(i)}, (i+1)*1000), 0); err != nil {
			t.Fatal(err)
		}
		clock.Sleep(time.Second)
		fs.Tick()
	}
	fs.Remove("a")
	fs.Remove("e")
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	rep := fs.Fsck()
	if !rep.Clean {
		t.Fatalf("post-workload fsck dirty: %v", rep.Problems)
	}
	if rep.Files != 18 {
		t.Fatalf("files = %d, want 18", rep.Files)
	}
	if rep.UsedBlocks == 0 || rep.FreeBlocks == 0 {
		t.Fatalf("accounting: %+v", rep)
	}
}

func TestFsckCleanAfterCrashRecovery(t *testing.T) {
	fs, disk, _, clock := newFS(t)
	f, _ := fs.Create("survivor")
	f.WriteAt(bytes.Repeat([]byte{1}, 3*BlockSize), 0)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash + replay.
	fs2, err := Mount(disk, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep := fs2.Fsck()
	if !rep.Clean {
		t.Fatalf("post-recovery fsck dirty: %v", rep.Problems)
	}
}

func TestFsckDetectsLeakedBlock(t *testing.T) {
	fs, _, _, _ := newFS(t)
	// Corrupt deliberately: mark a data block used with no owner.
	bn := fs.sb.DataStart + 10
	fs.bitmap[bn/8] |= 1 << (bn % 8)
	rep := fs.Fsck()
	if rep.Clean {
		t.Fatal("leak not detected")
	}
	if !containsProblem(rep, "leaked block") {
		t.Fatalf("problems: %v", rep.Problems)
	}
}

func TestFsckDetectsSharedBlock(t *testing.T) {
	fs, _, _, _ := newFS(t)
	a, _ := fs.Create("a")
	b, _ := fs.Create("b")
	a.WriteAt([]byte("x"), 0)
	b.WriteAt([]byte("y"), 0)
	// Cross-link: b's first block now points at a's.
	fs.inodes[b.ino].Direct[0] = fs.inodes[a.ino].Direct[0]
	rep := fs.Fsck()
	if rep.Clean || !containsProblem(rep, "shared by inodes") {
		t.Fatalf("cross-link not detected: %v", rep.Problems)
	}
}

func TestFsckDetectsDanglingDirent(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("ghost")
	fs.inodes[f.ino].Used = false // orphan the entry
	rep := fs.Fsck()
	if rep.Clean || !containsProblem(rep, "free inode") {
		t.Fatalf("dangling entry not detected: %v", rep.Problems)
	}
}

func TestFsckDetectsOrphanInode(t *testing.T) {
	fs, _, _, _ := newFS(t)
	fs.inodes[5].Used = true // used, never referenced
	rep := fs.Fsck()
	if rep.Clean || !containsProblem(rep, "orphan inode") {
		t.Fatalf("orphan not detected: %v", rep.Problems)
	}
}

func TestFsckDetectsFreeBlockReference(t *testing.T) {
	fs, _, _, _ := newFS(t)
	f, _ := fs.Create("f")
	f.WriteAt([]byte("data"), 0)
	bn := fs.inodes[f.ino].Direct[0]
	fs.bitmap[bn/8] &^= 1 << (bn % 8) // free it under the inode
	rep := fs.Fsck()
	if rep.Clean || !containsProblem(rep, "references free block") {
		t.Fatalf("free-block reference not detected: %v", rep.Problems)
	}
}

func TestFsckUnmounted(t *testing.T) {
	fs, _, _, _ := newFS(t)
	fs.Unmount()
	rep := fs.Fsck()
	if rep.Clean {
		t.Fatal("unmounted fsck should report a problem")
	}
}

func containsProblem(rep FsckReport, sub string) bool {
	for _, p := range rep.Problems {
		if strings.Contains(p, sub) {
			return true
		}
	}
	return false
}

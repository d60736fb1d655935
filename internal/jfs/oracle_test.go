package jfs

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/simclock"
)

// TestOracleRandomOperations drives the filesystem with a long random
// operation sequence mirrored against an in-memory model, verifying
// content equivalence throughout and across a crash-recovery remount.
func TestOracleRandomOperations(t *testing.T) {
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 77)
	if err != nil {
		t.Fatal(err)
	}
	disk := blockdev.NewDisk(drive)
	if err := Mkfs(disk, MkfsOptions{Blocks: 1 << 16}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(disk, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	model := make(map[string][]byte) // name -> contents
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}

	verify := func(fsys *FS, step int) {
		t.Helper()
		live := fsys.List()
		if len(live) != len(model) {
			t.Fatalf("step %d: fs has %d files, model %d (%v)", step, len(live), len(model), live)
		}
		for name, want := range model {
			f, err := fsys.Open(name)
			if err != nil {
				t.Fatalf("step %d: open %q: %v", step, name, err)
			}
			if f.Size() != int64(len(want)) {
				t.Fatalf("step %d: %q size %d, model %d", step, name, f.Size(), len(want))
			}
			got := make([]byte, len(want))
			if len(want) > 0 {
				if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
					t.Fatalf("step %d: read %q: %v", step, name, err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: %q content mismatch", step, name)
			}
		}
	}

	const steps = 400
	for i := 0; i < steps; i++ {
		name := names[rng.Intn(len(names))]
		switch op := rng.Intn(10); {
		case op < 4: // write at random offset
			if _, ok := model[name]; !ok {
				if _, err := fs.Create(name); err != nil {
					t.Fatalf("step %d: create: %v", i, err)
				}
				model[name] = nil
			}
			f, err := fs.Open(name)
			if err != nil {
				t.Fatalf("step %d: open: %v", i, err)
			}
			off := int64(rng.Intn(3 * BlockSize))
			data := make([]byte, 1+rng.Intn(2*BlockSize))
			for j := range data {
				data[j] = byte(rng.Intn(256))
			}
			if _, err := f.WriteAt(data, off); err != nil {
				t.Fatalf("step %d: write: %v", i, err)
			}
			cur := model[name]
			if need := off + int64(len(data)); int64(len(cur)) < need {
				grown := make([]byte, need)
				copy(grown, cur)
				cur = grown
			}
			copy(cur[off:], data)
			model[name] = cur
		case op < 6: // remove
			if _, ok := model[name]; ok {
				if err := fs.Remove(name); err != nil {
					t.Fatalf("step %d: remove: %v", i, err)
				}
				delete(model, name)
			}
		case op < 7: // truncate
			if cur, ok := model[name]; ok {
				newSize := int64(0)
				if len(cur) > 0 {
					newSize = int64(rng.Intn(len(cur) + 1))
				}
				f, _ := fs.Open(name)
				if err := f.Truncate(newSize); err != nil {
					t.Fatalf("step %d: truncate: %v", i, err)
				}
				model[name] = append([]byte(nil), cur[:newSize]...)
			}
		case op < 8: // sync
			if err := fs.Sync(); err != nil {
				t.Fatalf("step %d: sync: %v", i, err)
			}
		default: // time passes, background commit
			clock.Sleep(time.Duration(rng.Intn(6)) * time.Second)
			fs.Tick()
		}
		if i%50 == 0 {
			verify(fs, i)
		}
	}
	verify(fs, steps)

	// fsck must agree the filesystem is consistent.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	rep := fs.Fsck()
	if !rep.Clean {
		t.Fatalf("oracle workload left dirty fs: %v", rep.Problems)
	}

	// Crash recovery: everything synced must survive a remount.
	fs2, err := Mount(disk, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	verify(fs2, steps+1)
	rep2 := fs2.Fsck()
	if !rep2.Clean {
		t.Fatalf("recovered fs dirty: %v", rep2.Problems)
	}
}

// TestOracleSurvivesMidRunAttacks repeats a shorter oracle run with attack
// bursts injected; every operation that *succeeded* must be reflected
// exactly, and the filesystem must stay consistent as long as the journal
// never aborts.
func TestOracleSurvivesMidRunAttacks(t *testing.T) {
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 123)
	if err != nil {
		t.Fatal(err)
	}
	disk := blockdev.NewDisk(drive)
	if err := Mkfs(disk, MkfsOptions{Blocks: 1 << 16}); err != nil {
		t.Fatal(err)
	}
	fs, err := Mount(disk, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	model := make(map[string][]byte)
	for i := 0; i < 150; i++ {
		// Toggle short attack bursts.
		if i%30 == 10 {
			drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 0.2})
		}
		if i%30 == 15 {
			drive.SetVibration(hdd.Quiet())
		}
		name := fmt.Sprintf("f%d", rng.Intn(5))
		if _, ok := model[name]; !ok {
			if _, err := fs.Create(name); err != nil {
				continue // attack may block metadata-less path; skip
			}
			model[name] = nil
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		data := []byte(fmt.Sprintf("payload-%d", i))
		off := int64(rng.Intn(BlockSize))
		if _, err := f.WriteAt(data, off); err != nil {
			continue // failed write: model unchanged for the failed tail
		}
		cur := model[name]
		if need := off + int64(len(data)); int64(len(cur)) < need {
			grown := make([]byte, need)
			copy(grown, cur)
			cur = grown
		}
		copy(cur[off:], data)
		model[name] = cur
	}
	drive.SetVibration(hdd.Quiet())
	if aborted, _ := fs.Aborted(); aborted {
		t.Fatal("journal aborted under short attack bursts")
	}
	for name, want := range model {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatalf("open %q: %v", name, err)
		}
		got := make([]byte, len(want))
		if len(want) > 0 {
			if _, err := f.ReadAt(got, 0); err != nil && err != io.EOF {
				t.Fatalf("read %q: %v", name, err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q diverged from model", name)
		}
	}
	if rep := fs.Fsck(); !rep.Clean {
		t.Fatalf("fs dirty after attack bursts: %v", rep.Problems)
	}
}

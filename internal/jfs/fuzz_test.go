package jfs

import (
	"bytes"
	"io"
	"testing"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/hdd"
	"deepnote/internal/simclock"
)

// FuzzFileOps interprets the fuzz input as an operation stream (create,
// write, truncate, remove, sync, tick, crash-remount) mirrored against an
// in-memory model. Any divergence between the filesystem and the model —
// or an unclean fsck after a synced workload — is a bug. This is the
// oracle test's property under adversarial schedules instead of a fixed
// RNG.
func FuzzFileOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 1, 0, 3, 9, 4, 1, 0, 0, 6, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 200, 2, 1, 7, 0, 3, 1, 0, 0, 5, 2, 1, 1})
	f.Add(bytes.Repeat([]byte{0, 2, 40, 17}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		clock := simclock.NewVirtual()
		drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 7)
		if err != nil {
			t.Fatal(err)
		}
		disk := blockdev.NewDisk(drive)
		if err := Mkfs(disk, MkfsOptions{Blocks: 1 << 14}); err != nil {
			t.Fatal(err)
		}
		fs, err := Mount(disk, clock, Config{})
		if err != nil {
			t.Fatal(err)
		}

		names := []string{"a", "b", "c", "d"}
		model := make(map[string][]byte)

		for len(data) >= 4 {
			op, ni, a, b := data[0], data[1], data[2], data[3]
			data = data[4:]
			name := names[int(ni)%len(names)]
			switch op % 7 {
			case 0: // write (creating on demand), offset and length bounded
				if _, ok := model[name]; !ok {
					if _, err := fs.Create(name); err != nil {
						t.Fatalf("create %q: %v", name, err)
					}
					model[name] = nil
				}
				fh, err := fs.Open(name)
				if err != nil {
					t.Fatalf("open %q: %v", name, err)
				}
				off := int64(a) * 37 // up to ~2.3 blocks in
				buf := make([]byte, 1+int(b))
				for j := range buf {
					buf[j] = b + byte(j)
				}
				if _, err := fh.WriteAt(buf, off); err != nil {
					t.Fatalf("write %q: %v", name, err)
				}
				cur := model[name]
				if need := off + int64(len(buf)); int64(len(cur)) < need {
					grown := make([]byte, need)
					copy(grown, cur)
					cur = grown
				}
				copy(cur[off:], buf)
				model[name] = cur
			case 1: // append
				if _, ok := model[name]; !ok {
					continue
				}
				fh, err := fs.Open(name)
				if err != nil {
					t.Fatalf("open %q: %v", name, err)
				}
				buf := bytes.Repeat([]byte{a}, 1+int(b)%97)
				if _, err := fh.Append(buf); err != nil {
					t.Fatalf("append %q: %v", name, err)
				}
				model[name] = append(model[name], buf...)
			case 2: // truncate within the current size
				cur, ok := model[name]
				if !ok {
					continue
				}
				newSize := int64(0)
				if len(cur) > 0 {
					newSize = int64(int(a) % (len(cur) + 1))
				}
				fh, err := fs.Open(name)
				if err != nil {
					t.Fatalf("open %q: %v", name, err)
				}
				if err := fh.Truncate(newSize); err != nil {
					t.Fatalf("truncate %q: %v", name, err)
				}
				model[name] = append([]byte(nil), cur[:newSize]...)
			case 3: // remove
				if _, ok := model[name]; !ok {
					continue
				}
				if err := fs.Remove(name); err != nil {
					t.Fatalf("remove %q: %v", name, err)
				}
				delete(model, name)
			case 4: // sync
				if err := fs.Sync(); err != nil {
					t.Fatalf("sync: %v", err)
				}
			case 5: // time passes, background commit
				clock.Sleep(time.Duration(1+int(a)%5) * time.Second)
				fs.Tick()
			case 6: // sync, then crash and recover on a fresh mount
				if err := fs.Sync(); err != nil {
					t.Fatalf("pre-crash sync: %v", err)
				}
				fs, err = Mount(disk, clock, Config{})
				if err != nil {
					t.Fatalf("recovery mount: %v", err)
				}
			}
		}

		// The filesystem must agree with the model exactly.
		if live := fs.List(); len(live) != len(model) {
			t.Fatalf("fs has %d files, model %d (%v)", len(live), len(model), live)
		}
		for name, want := range model {
			fh, err := fs.Open(name)
			if err != nil {
				t.Fatalf("final open %q: %v", name, err)
			}
			if fh.Size() != int64(len(want)) {
				t.Fatalf("%q size %d, model %d", name, fh.Size(), len(want))
			}
			got := make([]byte, len(want))
			if len(want) > 0 {
				if _, err := fh.ReadAt(got, 0); err != nil && err != io.EOF {
					t.Fatalf("final read %q: %v", name, err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%q content mismatch", name)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatalf("final sync: %v", err)
		}
		if rep := fs.Fsck(); !rep.Clean {
			t.Fatalf("fuzz workload left dirty fs: %v", rep.Problems)
		}
	})
}

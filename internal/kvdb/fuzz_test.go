package kvdb

import (
	"errors"
	"fmt"
	"testing"

	"deepnote/internal/jfs"
)

// FuzzDBOps interprets the fuzz input as an operation stream (put or
// overwrite, get, flush, crash-reopen) mirrored against a map; the store
// must agree with the map at every get and at the end. This drives the
// memtable, WAL replay, SSTables, and compaction under adversarial
// schedules instead of the oracle test's fixed RNG.
func FuzzDBOps(f *testing.F) {
	f.Add([]byte{0, 1, 10, 0, 2, 20, 3, 0, 0, 4, 0, 0, 1, 1, 0})
	f.Add([]byte{0, 5, 1, 0, 5, 2, 4, 0, 0, 0, 5, 3, 1, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := newRig(t, withBuffers(2<<10, 0))
		db := r.db
		model := make(map[string]string)
		key := func(b byte) string { return fmt.Sprintf("key-%03d", int(b)%64) }

		for len(data) >= 3 {
			op, kb, vb := data[0], data[1], data[2]
			data = data[3:]
			k := key(kb)
			switch op % 4 {
			case 0: // put / overwrite
				v := fmt.Sprintf("val-%d-%d", kb, vb)
				if err := db.Put([]byte(k), []byte(v)); err != nil {
					t.Fatalf("put %q: %v", k, err)
				}
				model[k] = v
			case 1: // get (also of absent keys)
				got, err := db.Get([]byte(k))
				if want, ok := model[k]; ok {
					if err != nil || string(got) != want {
						t.Fatalf("get %q = %q, %v; model %q", k, got, err, want)
					}
				} else if !errors.Is(err, ErrNotFound) {
					t.Fatalf("missing %q visible: %v", k, err)
				}
			case 2: // flush memtable to a table
				if err := db.Flush(); err != nil {
					t.Fatalf("flush: %v", err)
				}
			case 3: // make durable, then crash and recover
				if err := db.Flush(); err != nil {
					t.Fatalf("pre-crash flush: %v", err)
				}
				fs2, err := jfs.Mount(r.disk, r.clock, jfs.Config{})
				if err != nil {
					t.Fatalf("recovery mount: %v", err)
				}
				db, err = open(fs2, r.clock, Options{}, withBuffers(2<<10, 0))
				if err != nil {
					t.Fatalf("recovery open: %v", err)
				}
			}
		}

		// The store must agree with the model exactly.
		for k, want := range model {
			got, err := db.Get([]byte(k))
			if err != nil {
				t.Fatalf("get %q: %v", k, err)
			}
			if string(got) != want {
				t.Fatalf("%q = %q, model %q", k, got, want)
			}
		}
		for i := 0; i < 64; i++ {
			k := fmt.Sprintf("key-%03d", i)
			if _, ok := model[k]; ok {
				continue
			}
			if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("missing %q visible: %v", k, err)
			}
		}
	})
}

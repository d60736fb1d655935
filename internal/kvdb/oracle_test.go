package kvdb

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"deepnote/internal/jfs"
)

// TestOracleRandomOpsWithReopens drives the store with a random mix of
// puts, overwrites, gets, flushes, and full crash-reopen cycles, mirrored
// against a map; the store must agree with the map at every get and
// checkpoint. This exercises memtable, WAL recovery, SSTables, and
// compaction together.
func TestOracleRandomOpsWithReopens(t *testing.T) {
	r := newRig(t, Options{MemtableBytes: 4 << 10, L0CompactTrigger: 3})
	db := r.db
	rng := rand.New(rand.NewSource(2024))
	model := make(map[string]string)

	key := func() string { return fmt.Sprintf("key-%03d", rng.Intn(300)) }
	verify := func(step int) {
		t.Helper()
		for k, want := range model {
			got, err := db.Get([]byte(k))
			if err != nil {
				t.Fatalf("step %d: get %q: %v", step, k, err)
			}
			if string(got) != want {
				t.Fatalf("step %d: %q = %q, model %q", step, k, got, want)
			}
		}
		// Spot-check absent keys.
		for i := 0; i < 20; i++ {
			k := fmt.Sprintf("key-%03d", rng.Intn(300))
			if _, ok := model[k]; ok {
				continue
			}
			if _, err := db.Get([]byte(k)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: missing %q visible: %v", step, k, err)
			}
		}
	}

	const steps = 1200
	for i := 0; i < steps; i++ {
		switch op := rng.Intn(20); {
		case op < 12: // put / overwrite
			k := key()
			v := fmt.Sprintf("val-%d", i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatalf("step %d: put: %v", i, err)
			}
			model[k] = v
		case op < 16: // get (possibly absent)
			k := key()
			got, err := db.Get([]byte(k))
			if want, ok := model[k]; ok {
				if err != nil || string(got) != want {
					t.Fatalf("step %d: get %q = %q, %v; model %q", i, k, got, err, want)
				}
			} else if !errors.Is(err, ErrNotFound) {
				t.Fatalf("step %d: missing %q visible: %v", i, k, err)
			}
		case op < 18: // explicit flush
			if err := db.Flush(); err != nil {
				t.Fatalf("step %d: flush: %v", i, err)
			}
		default: // make the log durable, then crash and reopen
			if err := db.wal.sync(); err != nil {
				t.Fatalf("step %d: sync: %v", i, err)
			}
			fs2, err := jfs.Mount(r.disk, r.clock, jfs.Config{})
			if err != nil {
				t.Fatalf("step %d: remount: %v", i, err)
			}
			db, err = Open(fs2, r.clock, Options{MemtableBytes: 4 << 10, L0CompactTrigger: 3})
			if err != nil {
				t.Fatalf("step %d: reopen: %v", i, err)
			}
		}
		if i%200 == 199 {
			verify(i)
		}
	}
	verify(steps)
}

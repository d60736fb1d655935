package kvdb

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestHotPathAllocs pins what the read and write paths allocate: a Get
// hit copies only the value, whichever level holds it, a miss allocates
// nothing, and a Put that triggers no flush stays within 4 allocations
// (the memtable's key, value and node; the WAL buffer grows in place).
func TestHotPathAllocs(t *testing.T) {
	r := newRig(t, withBuffers(64<<20, 64<<20))
	db := r.db
	value := bytes.Repeat([]byte{'v'}, 100)
	put := func(i int) {
		t.Helper()
		if err := db.Put(benchKey(i), value); err != nil {
			t.Fatal(err)
		}
	}
	// Even keys 0..998 land in L1, 1000..1998 in L0, 2000..2998 stay in
	// the memtable; odd keys are never written.
	for i := 0; i < 3000; i += 2 {
		put(i)
		switch i {
		case 998:
			if err := db.flushMemtable(); err != nil {
				t.Fatal(err)
			}
			if err := db.compact(); err != nil {
				t.Fatal(err)
			}
		case 1998:
			if err := db.flushMemtable(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if l0, l1 := db.Levels(); l0 != 1 || l1 != 1 {
		t.Fatalf("levels L0=%d L1=%d, want 1 and 1", l0, l1)
	}
	for _, c := range []struct {
		name string
		key  int
		max  float64
		err  error
	}{
		{"memtable hit", 2500, 1, nil},
		{"L0 hit", 1500, 1, nil},
		{"L1 hit", 500, 1, nil},
		{"memtable-range miss", 2501, 0, ErrNotFound},
		{"L0-range miss", 1501, 0, ErrNotFound},
		{"L1-range miss", 501, 0, ErrNotFound},
		{"miss past every table", 9999, 0, ErrNotFound},
	} {
		key := benchKey(c.key)
		var err error
		allocs := testing.AllocsPerRun(200, func() { _, err = db.Get(key) })
		if !errors.Is(err, c.err) {
			t.Fatalf("%s: Get = %v, want %v", c.name, err, c.err)
		}
		if allocs > c.max {
			t.Errorf("%s: %.1f allocs/op, want ≤ %.0f", c.name, allocs, c.max)
		}
	}

	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = benchKey(10000 + i)
	}
	flushes, i := db.Stats().MemtableFlushes, 0
	allocs := testing.AllocsPerRun(len(keys)-1, func() {
		if err := db.Put(keys[i], value); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if db.Stats().MemtableFlushes != flushes || db.Stats().WALFlushes != 0 {
		t.Fatalf("the pinned puts flushed: %+v", db.Stats())
	}
	if allocs > 4 {
		t.Errorf("Put: %.1f allocs/op, want ≤ 4", allocs)
	}
}

// benchDB returns a store on a quiet drive, holding fill db_bench-sized
// records (16-byte keys, 100-byte values) with the default buffers.
func benchDB(b *testing.B, fill int) *DB {
	b.Helper()
	r := newRig(b, defaultBuffers)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < fill; i++ {
		if err := r.db.Put(benchKey(i), benchValue(rng, 100)); err != nil {
			b.Fatal(err)
		}
	}
	return r.db
}

// BenchmarkPut times db_bench-sized puts of new keys, memtable flushes,
// WAL flushes and compactions included.
func BenchmarkPut(b *testing.B) {
	db := benchDB(b, 0)
	keys := make([][]byte, 1<<15)
	for i := range keys {
		keys[i] = benchKey(i)
	}
	value := bytes.Repeat([]byte{'v'}, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(keys[i%len(keys)], value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGet times random hits over 20,000 records spread across the
// memtable, L0 and L1.
func BenchmarkGet(b *testing.B) {
	const n = 20000
	db := benchDB(b, n)
	rng := rand.New(rand.NewSource(2))
	keys := make([][]byte, 1<<12)
	for i := range keys {
		keys[i] = benchKey(rng.Intn(n))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Get(keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMemtableFlush times writing a full memtable (about 2,200
// records) as an L0 table and rotating the WAL.
func BenchmarkMemtableFlush(b *testing.B) {
	db := benchDB(b, 0)
	value := bytes.Repeat([]byte{'v'}, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, t := range db.l0 {
			if err := db.fs.Remove(t.Name); err != nil {
				b.Fatal(err)
			}
		}
		db.l0 = nil
		for k := 0; db.mem.ApproximateBytes() < db.buf.memtable-200; k++ {
			db.mem.Put(benchKey(k), value, db.seq)
			db.seq++
		}
		b.StartTimer()
		if err := db.flushMemtable(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompaction times merging four overlapping L0 tables of 2,000
// records each into an L1 run of the same key range.
func BenchmarkCompaction(b *testing.B) {
	db := benchDB(b, 0)
	rng := rand.New(rand.NewSource(3))
	var l0 [][]Entry
	for t := 0; t < l0CompactTrigger; t++ {
		entries := make([]Entry, 2000)
		for i := range entries {
			entries[i] = Entry{Key: benchKey(4*i + t), Value: benchValue(rng, 100), Seq: uint64(t*len(entries) + i + 1)}
		}
		l0 = append(l0, entries)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, entries := range l0 {
			t, err := writeSSTable(db.fs, sstName(0, db.sstGen), entries)
			if err != nil {
				b.Fatal(err)
			}
			db.sstGen++
			db.l0 = append([]*SSTable{t}, db.l0...)
		}
		b.StartTimer()
		if err := db.compact(); err != nil {
			b.Fatal(err)
		}
	}
}

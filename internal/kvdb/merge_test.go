package kvdb

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// referenceCompact is the map-and-sort merge compaction used to compute:
// the newest entry of each key wins (on equal Seq the later table), live
// keys are sorted, and the run splits into tables of about l1TableBytes.
// tables lists the L1 run, then L0 from oldest to newest.
func referenceCompact(tables [][]Entry) [][]Entry {
	merged := make(map[string]Entry)
	for _, entries := range tables {
		for _, e := range entries {
			prev, ok := merged[string(e.Key)]
			if !ok || e.Seq >= prev.Seq {
				merged[string(e.Key)] = e
			}
		}
	}
	keys := make([]string, 0, len(merged))
	for k, e := range merged {
		if e.Value == nil {
			continue // tombstones die at the bottom level
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out [][]Entry
	var batch []Entry
	var batchBytes int
	for _, k := range keys {
		e := merged[k]
		batch = append(batch, e)
		batchBytes += len(e.Key) + len(e.Value) + 16
		if batchBytes >= l1TableBytes {
			out = append(out, batch)
			batch, batchBytes = nil, 0
		}
	}
	if len(batch) > 0 {
		out = append(out, batch)
	}
	return out
}

// installTables writes l1 (sorted by min key, as Open sorts L1) and l0
// (oldest first) as tables of db, replacing its levels.
func installTables(t *testing.T, db *DB, l1, l0 [][]Entry) {
	t.Helper()
	write := func(level int, entries []Entry) *SSTable {
		tbl, err := writeSSTable(db.fs, sstName(level, db.sstGen), entries)
		if err != nil {
			t.Fatal(err)
		}
		db.sstGen++
		return tbl
	}
	db.l0, db.l1 = nil, nil
	for _, entries := range l1 {
		db.l1 = append(db.l1, write(1, entries))
	}
	for _, entries := range l0 {
		db.l0 = append([]*SSTable{write(0, entries)}, db.l0...) // newest first
	}
}

// checkCompaction installs l1 and l0 as db's tables, compacts them, and
// checks that the new L1 run holds exactly referenceCompact's tables,
// entry for entry.
func checkCompaction(t *testing.T, db *DB, l1, l0 [][]Entry) {
	t.Helper()
	installTables(t, db, l1, l0)
	if err := db.compact(); err != nil {
		t.Fatal(err)
	}
	checkL1(t, db, referenceCompact(append(append([][]Entry{}, l1...), l0...)))
}

// checkL1 checks that db's L1 run holds exactly the tables want, entry for
// entry, and that Get finds every key of want.
func checkL1(t *testing.T, db *DB, want [][]Entry) {
	t.Helper()
	if len(db.l1) != len(want) {
		t.Fatalf("%d L1 tables, reference %d", len(db.l1), len(want))
	}
	for ti, tbl := range db.l1 {
		c := runCursor{run: []*SSTable{tbl}}
		for i, w := range want[ti] {
			if err := c.next(); err != nil || c.done {
				t.Fatalf("table %d entry %d: %v, done %v", ti, i, err, c.done)
			}
			if !bytes.Equal(c.head.Key, w.Key) || !bytes.Equal(c.head.Value, w.Value) ||
				c.head.Value == nil || c.head.Seq != w.Seq {
				t.Fatalf("table %d entry %d = %q/%d (%d-byte value), reference %q/%d (%d-byte value)",
					ti, i, c.head.Key, c.head.Seq, len(c.head.Value), w.Key, w.Seq, len(w.Value))
			}
		}
		if err := c.next(); err != nil || !c.done {
			t.Fatalf("table %d holds more than the reference's %d entries", ti, len(want[ti]))
		}
	}
	for _, tbl := range want {
		for _, w := range tbl {
			if v, err := db.Get(w.Key); err != nil || !bytes.Equal(v, w.Value) {
				t.Fatalf("Get(%q) = %d-byte value, %v; reference %d bytes", w.Key, len(v), err, len(w.Value))
			}
		}
	}
}

// randomTable returns a sorted table of distinct keys drawn from [lo, hi),
// with Seqs from a small range so equal Seqs recur across tables, and
// tombstones at rate tombs.
func randomTable(rng *rand.Rand, lo, hi, n int, maxValue int, tombs float64) []Entry {
	keys := map[int]bool{}
	for len(keys) < n && len(keys) < hi-lo {
		keys[lo+rng.Intn(hi-lo)] = true
	}
	idx := make([]int, 0, len(keys))
	for k := range keys {
		idx = append(idx, k)
	}
	sort.Ints(idx)
	out := make([]Entry, len(idx))
	for i, k := range idx {
		out[i] = Entry{Key: benchKey(k), Seq: uint64(1 + rng.Intn(8))}
		if rng.Float64() >= tombs {
			out[i].Value = bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, rng.Intn(maxValue+1))
		}
	}
	return out
}

// TestMergeCompactionMatchesReference: merge compaction writes exactly
// the L1 run the map-and-sort merge would, over random runs with
// tombstones, equal Seqs across tables, several L1 tables, overlapping L1
// tables and runs large enough to split.
func TestMergeCompactionMatchesReference(t *testing.T) {
	r := newRig(t, defaultBuffers)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		keySpace := 50 + rng.Intn(400)
		maxValue := 64
		if trial%4 == 3 {
			maxValue = 12 << 10 // enough payload for several L1 tables
		}
		// The L1 run: disjoint, ascending key ranges; every third trial
		// adds tables overlapping it, as a failed compaction leaves them.
		var l1 [][]Entry
		nl1 := rng.Intn(4)
		for i := 0; i < nl1; i++ {
			lo, hi := i*keySpace/nl1, (i+1)*keySpace/nl1
			if tbl := randomTable(rng, lo, hi, rng.Intn(hi-lo+1), maxValue, 0.05); len(tbl) > 0 {
				l1 = append(l1, tbl)
			}
		}
		if trial%3 == 2 {
			for i := 1 + rng.Intn(3); i > 0; i-- {
				lo := rng.Intn(keySpace)
				l1 = append(l1, randomTable(rng, lo, keySpace, 1+rng.Intn(keySpace-lo), maxValue, 0.05))
			}
			sort.SliceStable(l1, func(i, j int) bool { return bytes.Compare(l1[i][0].Key, l1[j][0].Key) < 0 })
		}
		var l0 [][]Entry
		for i := 1 + rng.Intn(l0StopTrigger); i > 0; i-- {
			l0 = append(l0, randomTable(rng, 0, keySpace, 1+rng.Intn(keySpace), maxValue, 0.3))
		}
		checkCompaction(t, r.db, l1, l0)
	}
}

// TestMergeCompactionSplitsAtBoundary: a run whose payload reaches
// l1TableBytes exactly at its 256th entry closes the table there, and an
// equal-Seq key present in two L0 tables takes the newer table's value.
func TestMergeCompactionSplitsAtBoundary(t *testing.T) {
	r := newRig(t, defaultBuffers)
	const perEntry = l1TableBytes / 256
	var big []Entry
	for i := 0; i < 300; i++ {
		big = append(big, Entry{Key: benchKey(i), Value: bytes.Repeat([]byte{'v'}, perEntry-benchKeySize-16), Seq: 1})
	}
	older := []Entry{{Key: benchKey(1000), Value: []byte("older"), Seq: 5}}
	newer := []Entry{
		{Key: benchKey(5), Seq: 2}, // tombstone over the L1 entry
		{Key: benchKey(1000), Value: []byte("newer"), Seq: 5},
	}
	checkCompaction(t, r.db, [][]Entry{big}, [][]Entry{older, newer})
	l1 := r.db.l1
	if len(l1) != 2 || len(l1[0].index) != 256 {
		t.Fatalf("split into %d tables, the first of %d entries; want 2, the first of 256", len(l1), len(l1[0].index))
	}
	if v, found := l1[1].Get(benchKey(1000)); !found || string(v) != "newer" {
		t.Fatalf("equal-Seq key = %q, found %v; want the newer table's value", v, found)
	}
}

// TestCompactionAfterFailedCompaction: a compaction that fails after
// writing its first new L1 table removes that table again, so a reopen
// finds the levels as they were, and the next compaction writes exactly
// the reference run, and Get finds every key.
func TestCompactionAfterFailedCompaction(t *testing.T) {
	r := newRig(t, defaultBuffers)
	rng := rand.New(rand.NewSource(11))
	const maxValue = 12 << 10
	l1 := [][]Entry{randomTable(rng, 0, 200, 150, maxValue, 0), randomTable(rng, 200, 400, 150, maxValue, 0)}
	var l0 [][]Entry
	for i := 0; i < l0CompactTrigger; i++ {
		l0 = append(l0, randomTable(rng, 0, 400, 100, maxValue, 0.2))
	}
	want := referenceCompact(append(append([][]Entry{}, l1...), l0...))
	if len(want) < 2 {
		t.Fatalf("the reference run has %d tables; the test needs two or more", len(want))
	}
	installTables(t, r.db, l1, l0)

	// A file under the second new table's name makes its Create fail.
	blocker := sstName(1, r.db.sstGen+1)
	if _, err := r.fs.Create(blocker); err != nil {
		t.Fatal(err)
	}
	if err := r.db.compact(); err == nil {
		t.Fatal("compaction wrote over an existing file")
	}
	if err := r.fs.Remove(blocker); err != nil {
		t.Fatal(err)
	}

	db, err := open(r.fs, r.clock, Options{}, defaultBuffers)
	if err != nil {
		t.Fatal(err)
	}
	if l0n, l1n := db.Levels(); l0n != len(l0) || l1n != len(l1) {
		t.Fatalf("reopened with %d L0 and %d L1 tables; want %d and %d, no leftover",
			l0n, l1n, len(l0), len(l1))
	}
	if err := db.compact(); err != nil {
		t.Fatal(err)
	}
	checkL1(t, db, want)
}

// TestCompactionMergesLeftoverL1Table: when a failed compaction cannot
// remove the first L1 table it wrote, a reopen loads that table into L1
// beside the run it overlaps. The next compaction still writes exactly
// the reference run, and Get finds every key.
func TestCompactionMergesLeftoverL1Table(t *testing.T) {
	r := newRig(t, defaultBuffers)
	rng := rand.New(rand.NewSource(11))
	const maxValue = 12 << 10
	l1 := [][]Entry{randomTable(rng, 0, 200, 150, maxValue, 0), randomTable(rng, 200, 400, 150, maxValue, 0)}
	var l0 [][]Entry
	for i := 0; i < l0CompactTrigger; i++ {
		l0 = append(l0, randomTable(rng, 0, 400, 100, maxValue, 0.2))
	}
	want := referenceCompact(append(append([][]Entry{}, l1...), l0...))
	if len(want) < 2 {
		t.Fatalf("the reference run has %d tables; the test needs two or more", len(want))
	}
	// The leftover is the first table of the run the failed compaction
	// was writing; Open sorts L1 by min key.
	withLeftover := append(append([][]Entry{}, l1...), want[0])
	sort.SliceStable(withLeftover, func(i, j int) bool {
		return bytes.Compare(withLeftover[i][0].Key, withLeftover[j][0].Key) < 0
	})
	installTables(t, r.db, withLeftover, l0)
	if err := r.db.compact(); err != nil {
		t.Fatal(err)
	}
	checkL1(t, r.db, want)
}

package kvdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
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
	db    *DB
}

// withBuffers returns the default buffers with the given memtable and WAL
// thresholds; a zero argument keeps the default.
func withBuffers(memtable, walFlush int) buffers {
	b := defaultBuffers
	if memtable > 0 {
		b.memtable = memtable
	}
	if walFlush > 0 {
		b.walFlush = walFlush
	}
	return b
}

func newRig(t testing.TB, buf buffers) *rig {
	t.Helper()
	clock := simclock.NewVirtual()
	drive, err := hdd.NewDrive(hdd.Barracuda500(), clock, 13)
	if err != nil {
		t.Fatal(err)
	}
	disk := blockdev.NewDisk(drive)
	if err := jfs.Mkfs(disk, jfs.MkfsOptions{Blocks: 1 << 17}); err != nil {
		t.Fatal(err)
	}
	fs, err := jfs.Mount(disk, clock, jfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := open(fs, clock, Options{}, buf)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, disk: disk, drive: drive, fs: fs, db: db}
}

// tombstone logs a delete record for key and shadows it in the memtable.
// The write path makes none, but the log and table formats keep them, so
// Get, replay, flush and compaction must still honour them.
func (db *DB) tombstone(key []byte) {
	db.seq++
	db.wal.append(walRecord{seq: db.seq, op: walOpDelete, key: key})
	db.mem.insert(key, nil, db.seq)
}

func TestPutGetRoundTrip(t *testing.T) {
	r := newRig(t, defaultBuffers)
	if err := r.db.Put([]byte("key1"), []byte("value1")); err != nil {
		t.Fatal(err)
	}
	v, err := r.db.Get([]byte("key1"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "value1" {
		t.Fatalf("got %q", v)
	}
	if _, err := r.db.Get([]byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v", err)
	}
}

func TestOverwriteAndDelete(t *testing.T) {
	r := newRig(t, defaultBuffers)
	r.db.Put([]byte("k"), []byte("v1"))
	r.db.Put([]byte("k"), []byte("v2"))
	v, _ := r.db.Get([]byte("k"))
	if string(v) != "v2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	r.db.tombstone([]byte("k"))
	if _, err := r.db.Get([]byte("k")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after delete: %v", err)
	}
}

func TestMemtableFlushCreatesTables(t *testing.T) {
	r := newRig(t, withBuffers(8<<10, 0))
	val := bytes.Repeat([]byte{7}, 100)
	for i := 0; i < 200; i++ {
		if err := r.db.Put(benchKey(i), val); err != nil {
			t.Fatal(err)
		}
	}
	if r.db.Stats().MemtableFlushes == 0 {
		t.Fatal("expected memtable flushes")
	}
	l0, l1 := r.db.Levels()
	if l0+l1 == 0 {
		t.Fatal("expected tables on disk")
	}
	// All keys must still resolve after flushes.
	for i := 0; i < 200; i++ {
		if _, err := r.db.Get(benchKey(i)); err != nil {
			t.Fatalf("key %d lost after flush: %v", i, err)
		}
	}
}

func TestCompactionMergesAndDropsTombstones(t *testing.T) {
	r := newRig(t, withBuffers(4<<10, 0))
	val := bytes.Repeat([]byte{9}, 100)
	for i := 0; i < 100; i++ {
		r.db.Put(benchKey(i), val)
	}
	for i := 0; i < 50; i++ {
		r.db.tombstone(benchKey(i))
	}
	for i := 100; i < 200; i++ {
		r.db.Put(benchKey(i), val)
	}
	if err := r.db.Flush(); err != nil {
		t.Fatal(err)
	}
	if r.db.Stats().Compactions == 0 {
		t.Fatal("expected compactions")
	}
	for i := 0; i < 50; i++ {
		if _, err := r.db.Get(benchKey(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted key %d visible: %v", i, err)
		}
	}
	for i := 50; i < 200; i++ {
		if _, err := r.db.Get(benchKey(i)); err != nil {
			t.Fatalf("key %d lost in compaction: %v", i, err)
		}
	}
}

func TestWALRecoveryAfterCrash(t *testing.T) {
	r := newRig(t, defaultBuffers)
	r.db.Put([]byte("durable"), []byte("yes"))
	r.db.Put([]byte("gone"), []byte("maybe"))
	if err := r.db.Flush(); err != nil { // WAL + memtable durable
		t.Fatal(err)
	}
	// Crash: reopen the filesystem and database without Close.
	fs2, err := jfs.Mount(r.disk, r.clock, jfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(fs2, r.clock, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"durable", "gone"} {
		if _, err := db2.Get([]byte(k)); err != nil {
			t.Fatalf("key %q lost after recovery: %v", k, err)
		}
	}
}

func TestWALReplayRebuildsMemtableOnly(t *testing.T) {
	// Records synced to the WAL file but never flushed to a table must
	// reappear after reopen.
	r := newRig(t, withBuffers(0, 1)) // flush WAL after every write
	r.db.Put([]byte("wal-only"), []byte("recovered"))
	r.db.tombstone([]byte("wal-only-deleted"))
	if err := r.db.wal.sync(); err != nil {
		t.Fatal(err)
	}
	fs2, err := jfs.Mount(r.disk, r.clock, jfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(fs2, r.clock, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := db2.Get([]byte("wal-only"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v) != "recovered" {
		t.Fatalf("got %q", v)
	}
	if v, found := db2.mem.Get([]byte("wal-only-deleted")); !found || v != nil {
		t.Fatalf("replayed tombstone: found %v, value %q", found, v)
	}
}

func TestReadYourWritesProperty(t *testing.T) {
	r := newRig(t, withBuffers(16<<10, 0))
	model := map[string]string{}
	prop := func(kRaw, vRaw uint16) bool {
		k := fmt.Sprintf("key-%05d", kRaw%500)
		v := fmt.Sprintf("val-%d", vRaw)
		if err := r.db.Put([]byte(k), []byte(v)); err != nil {
			return false
		}
		model[k] = v
		// Verify a previously written key still reads correctly.
		for mk, mv := range model {
			got, err := r.db.Get([]byte(mk))
			if err != nil || string(got) != mv {
				return false
			}
			break
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBenchFillAndReadRandom(t *testing.T) {
	r := newRig(t, defaultBuffers)
	b := NewBench(r.db, r.clock)
	fill, err := b.Run(BenchSpec{Workload: WorkloadFillRandom, Num: 2000, ValueSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fill.Ops != 2000 || fill.Errors != 0 {
		t.Fatalf("fill: %+v", fill)
	}
	read, err := b.Run(BenchSpec{Workload: WorkloadReadRandom, Num: 2000, ValueSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if read.Ops != 2000 {
		t.Fatalf("read: %+v", read)
	}
	if read.OpsPerSec() <= 0 || fill.ThroughputMBps() <= 0 {
		t.Fatal("rates must be positive")
	}
}

func TestBenchValidation(t *testing.T) {
	r := newRig(t, defaultBuffers)
	b := NewBench(r.db, r.clock)
	for _, c := range []struct {
		name string
		spec BenchSpec
	}{
		{"unknown workload", BenchSpec{Workload: "nonsense", ValueSize: 100}},
		{"fill without Num", BenchSpec{Workload: WorkloadFillSeq, ValueSize: 100}},
		{"readwhilewriting without Runtime", BenchSpec{Workload: WorkloadReadWhileWriting, ValueSize: 100}},
		{"readrandom without Num", BenchSpec{Workload: WorkloadReadRandom, ValueSize: 100}},
		{"zero ValueSize", BenchSpec{Workload: WorkloadFillSeq, Num: 10}},
		{"negative ValueSize", BenchSpec{Workload: WorkloadFillSeq, Num: 10, ValueSize: -5}},
		{"negative Num", BenchSpec{Workload: WorkloadReadWhileWriting, Num: -3, Runtime: time.Second, ValueSize: 100}},
	} {
		if _, err := b.Run(c.spec); err == nil {
			t.Errorf("%s: %+v accepted", c.name, c.spec)
		}
	}
	// Seed 0 is a seed, not "unset": the run keeps it.
	res, err := b.Run(BenchSpec{Workload: WorkloadFillRandom, Num: 10, ValueSize: 1, Seed: 0})
	if err != nil || res.Ops != 10 || res.Spec.Seed != 0 {
		t.Fatalf("seed 0: %+v, %v", res, err)
	}
}

func TestReadWhileWritingBaselineMatchesPaper(t *testing.T) {
	// Paper Table 2, "No Attack": ≈8.7 MB/s and ≈1.1e5 ops/s.
	r := newRig(t, defaultBuffers)
	b := NewBench(r.db, r.clock)
	if _, err := b.Run(BenchSpec{Workload: WorkloadFillRandom, Num: 5000, ValueSize: 100, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	res, err := b.Run(BenchSpec{Workload: WorkloadReadWhileWriting, Runtime: 5 * time.Second, ValueSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ops := res.OpsPerSec()
	if ops < 0.75e5 || ops > 1.5e5 {
		t.Fatalf("ops/s = %.0f, want ≈1.1e5", ops)
	}
	mbps := res.ThroughputMBps()
	if mbps < 6 || mbps > 14 {
		t.Fatalf("throughput = %.1f MB/s, want ≈8.7", mbps)
	}
}

func TestReadWhileWritingCollapsesUnderAttack(t *testing.T) {
	// Paper Table 2 at ≤10 cm: 0 MB/s, no I/O completes.
	r := newRig(t, defaultBuffers)
	b := NewBench(r.db, r.clock)
	if _, err := b.Run(BenchSpec{Workload: WorkloadFillRandom, Num: 2000, ValueSize: 100, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	r.drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	res, err := b.Run(BenchSpec{Workload: WorkloadReadWhileWriting, Runtime: 10 * time.Second, ValueSize: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ThroughputMBps(); got > 0.9 {
		t.Fatalf("throughput under attack = %.2f MB/s, want ≈0", got)
	}
}

func TestCrashAfterProlongedWALFailure(t *testing.T) {
	// Paper Table 3: RocksDB crashes after ≈81 s with a WAL sync failure.
	r := newRig(t, withBuffers(0, 1))
	if err := r.db.Put([]byte("seed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	attackStart := r.clock.Now()
	r.drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	var crashErr error
	for i := 0; i < 200; i++ {
		if err := r.db.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			if crashed, cerr := r.db.Crashed(); crashed {
				crashErr = cerr
				break
			}
		}
	}
	if crashErr == nil {
		t.Fatal("database did not crash")
	}
	if !errors.Is(crashErr, ErrCrashed) {
		t.Fatalf("crash error = %v", crashErr)
	}
	ttc := r.db.CrashedAt().Sub(attackStart)
	if ttc < walStallLimit || ttc > walStallLimit+20*time.Second {
		t.Fatalf("time to crash = %v, want ≈ stall limit", ttc)
	}
	// Everything fails fast after the crash.
	if err := r.db.Put([]byte("x"), []byte("y")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("put after crash: %v", err)
	}
	if _, err := r.db.Get([]byte("seed")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("get after crash: %v", err)
	}
}

func TestRecoveryIfAttackStopsInTime(t *testing.T) {
	// The attack lifts after 5 s of virtual stall — within the stall
	// limit — so the blocked put completes and the database survives.
	r := newRig(t, withBuffers(0, 1))
	r.db.SetRetryHook(func(stalled time.Duration) bool {
		if stalled >= 5*time.Second {
			r.drive.SetVibration(hdd.Quiet())
		}
		return true
	})
	r.drive.SetVibration(hdd.Vibration{Freq: 650, Amplitude: 2.3})
	if err := r.db.Put([]byte("blocked"), []byte("v")); err != nil {
		t.Fatalf("put should have recovered: %v", err)
	}
	if crashed, _ := r.db.Crashed(); crashed {
		t.Fatal("database crashed despite recovery")
	}
	if r.db.Stats().WALErrors == 0 {
		t.Fatal("expected WAL retries during the stall")
	}
	v, err := r.db.Get([]byte("blocked"))
	if err != nil || string(v) != "v" {
		t.Fatalf("recovered value: %q %v", v, err)
	}
}

func TestCloseSemantics(t *testing.T) {
	r := newRig(t, defaultBuffers)
	r.db.Put([]byte("k"), []byte("v"))
	if err := r.db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.db.Put([]byte("k2"), []byte("v")); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if err := r.db.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestMemtableOrderingAndTombstones(t *testing.T) {
	m := NewMemtable(1)
	m.Put([]byte("b"), []byte("2"), 1)
	m.Put([]byte("a"), []byte("1"), 2)
	m.Put([]byte("c"), []byte("3"), 3)
	m.insert([]byte("b"), nil, 4)
	entries := m.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	if string(entries[0].Key) != "a" || string(entries[2].Key) != "c" {
		t.Fatal("entries out of order")
	}
	if entries[1].Value != nil {
		t.Fatal("tombstone lost")
	}
	v, found := m.Get([]byte("b"))
	if !found || v != nil {
		t.Fatal("tombstone should be found with nil value")
	}
}

func TestMemtableStaleWriteIgnored(t *testing.T) {
	m := NewMemtable(1)
	m.Put([]byte("k"), []byte("new"), 10)
	m.Put([]byte("k"), []byte("old"), 5)
	v, _ := m.Get([]byte("k"))
	if string(v) != "new" {
		t.Fatalf("stale write won: %q", v)
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	rec := walRecord{seq: 42, op: walOpPut, key: []byte("k"), value: []byte("v")}
	w := &wal{flushAt: 1 << 20}
	w.append(rec)
	enc := w.buf
	got, n, err := decodeWALRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) || got.seq != 42 || string(got.key) != "k" || string(got.value) != "v" {
		t.Fatalf("round trip: %+v", got)
	}
	// A second record lands after the first and decodes on its own.
	w.append(walRecord{seq: 43, op: walOpDelete, key: []byte("gone")})
	got, m, err := decodeWALRecord(w.buf[n:])
	if err != nil || n+m != len(w.buf) || got.seq != 43 || got.op != walOpDelete || string(got.key) != "gone" {
		t.Fatalf("second record: %+v, %d, %v", got, m, err)
	}
	// Corrupt CRC.
	enc = append([]byte(nil), enc...)
	enc[10] ^= 0xFF
	if _, _, err := decodeWALRecord(enc); err == nil {
		t.Fatal("corrupt record accepted")
	}
	// Zero fill reads as EOF.
	if _, _, err := decodeWALRecord(make([]byte, 64)); err == nil {
		t.Fatal("zero fill should not decode")
	}
}

func TestSSTableRoundTrip(t *testing.T) {
	r := newRig(t, defaultBuffers)
	entries := []Entry{
		{Key: []byte("a"), Value: []byte("1"), Seq: 1},
		{Key: []byte("b"), Value: nil, Seq: 2}, // tombstone
		{Key: []byte("c"), Value: []byte("3"), Seq: 3},
		{Key: []byte("d"), Value: []byte{}, Seq: 4},
	}
	tbl, err := writeSSTable(r.fs, "sst-0-000001", entries)
	if err != nil {
		t.Fatal(err)
	}
	if v, found := tbl.Get([]byte("b")); !found || v != nil {
		t.Fatalf("tombstone get: %v %q", found, v)
	}
	if _, found := tbl.Get([]byte("zz")); found {
		t.Fatal("out-of-range key found")
	}
	if _, found := tbl.Get([]byte("bb")); found {
		t.Fatal("in-range absent key found")
	}
	reopened, err := openSSTable(r.fs, "sst-0-000001")
	if err != nil {
		t.Fatal(err)
	}
	v, found := reopened.Get([]byte("c"))
	if !found || string(v) != "3" {
		t.Fatalf("reopened get: %v %q", found, v)
	}
	// Get returns a copy: changing it leaves the table intact.
	v[0] = 'x'
	if v, _ := reopened.Get([]byte("c")); string(v) != "3" {
		t.Fatalf("table changed through a returned value: %q", v)
	}
	// An empty value is a value, not a tombstone.
	if v, found := reopened.Get([]byte("d")); !found || v == nil || len(v) != 0 {
		t.Fatalf("empty value: %v %q (nil %v)", found, v, v == nil)
	}
	// A cursor over the reopened table reads back every entry.
	c := runCursor{run: []*SSTable{reopened}}
	for i, want := range entries {
		if err := c.next(); err != nil || c.done {
			t.Fatalf("entry %d: %v, done %v", i, err, c.done)
		}
		if !bytes.Equal(c.head.Key, want.Key) || !bytes.Equal(c.head.Value, want.Value) ||
			(c.head.Value == nil) != (want.Value == nil) || c.head.Seq != want.Seq {
			t.Fatalf("entry %d = %+v, want %+v", i, c.head, want)
		}
	}
	if err := c.next(); err != nil || !c.done {
		t.Fatalf("cursor past the end: %v, done %v", err, c.done)
	}
	if len(tbl.index) != 4 || len(reopened.index) != 4 || reopened.MaxSeq() != 4 {
		t.Fatalf("count %d, reopened %d, max seq %d", len(tbl.index), len(reopened.index), reopened.MaxSeq())
	}
	if string(reopened.minKey()) != "a" || string(reopened.maxKey()) != "d" {
		t.Fatalf("range %q..%q", reopened.minKey(), reopened.maxKey())
	}
}

// TestOpenRejectsEmptyTable: no table is written empty, so a table file
// whose header claims no entries is corrupt, and Open fails on it instead
// of loading a table with no key range.
func TestOpenRejectsEmptyTable(t *testing.T) {
	r := newRig(t, defaultBuffers)
	f, err := r.fs.Create(sstName(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	raw := binary.LittleEndian.AppendUint64(nil, sstMagic)
	raw = binary.LittleEndian.AppendUint32(raw, 0)
	if _, err := f.WriteAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	_, err = Open(r.fs, r.clock, Options{})
	if err == nil || !strings.Contains(err.Error(), "claims 0 entries") {
		t.Fatalf("Open over a 0-entry table: %v", err)
	}
}

// TestEntryEncoding pins the table entry format byte for byte, the
// tombstone marker included.
func TestEntryEncoding(t *testing.T) {
	for _, c := range []struct {
		e    Entry
		want []byte
	}{
		{Entry{Key: []byte("k"), Value: []byte("vv"), Seq: 7},
			[]byte{1, 0, 'k', 2, 0, 0, 0, 'v', 'v', 7, 0, 0, 0, 0, 0, 0, 0}},
		{Entry{Key: []byte("k"), Value: []byte{}, Seq: 7},
			[]byte{1, 0, 'k', 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0}},
		{Entry{Key: []byte("k"), Seq: 7}, // tombstone
			[]byte{1, 0, 'k', 0xFF, 0xFF, 0xFF, 0xFF, 7, 0, 0, 0, 0, 0, 0, 0}},
	} {
		got := appendEntry(nil, c.e)
		if !bytes.Equal(got, c.want) || len(got) != entrySize(c.e) {
			t.Fatalf("%+v encodes as %v (size %d), want %v", c.e, got, entrySize(c.e), c.want)
		}
		back, n, err := decodeEntry(got)
		if err != nil || n != len(got) || !bytes.Equal(back.Key, c.e.Key) ||
			(back.Value == nil) != (c.e.Value == nil) || back.Seq != c.e.Seq {
			t.Fatalf("%+v decodes as %+v, %d, %v", c.e, back, n, err)
		}
	}
}

func TestBloomFilterNoFalseNegatives(t *testing.T) {
	b := newBloom(1000)
	for i := 0; i < 1000; i++ {
		b.add(benchKey(i))
	}
	for i := 0; i < 1000; i++ {
		if !b.mayContain(benchKey(i)) {
			t.Fatalf("false negative at %d", i)
		}
	}
	// False positive rate sanity: most absent keys excluded.
	fp := 0
	for i := 1000; i < 2000; i++ {
		if b.mayContain(benchKey(i)) {
			fp++
		}
	}
	if fp > 200 {
		t.Fatalf("false positive rate too high: %d/1000", fp)
	}
}

// TestKeyLengthLimit: tables and the WAL store a key's length in 16 bits.
// Put refuses a longer key before it logs anything, and the store stays
// usable; the longest key that fits survives a flush and a reopen.
func TestKeyLengthLimit(t *testing.T) {
	r := newRig(t, defaultBuffers)
	seq := r.db.Seq()
	err := r.db.Put(bytes.Repeat([]byte{'k'}, maxKeyLen+1), []byte("v"))
	if err == nil || !strings.Contains(err.Error(), "key length 65536") {
		t.Fatalf("65,536-byte key: %v", err)
	}
	if r.db.Seq() != seq || len(r.db.wal.buf) != 0 || r.db.mem.Len() != 0 {
		t.Fatalf("rejected put changed the store: seq %d→%d, wal %d bytes, memtable %d",
			seq, r.db.Seq(), len(r.db.wal.buf), r.db.mem.Len())
	}
	long := bytes.Repeat([]byte{'k'}, maxKeyLen)
	if err := r.db.Put(long, []byte("longest")); err != nil {
		t.Fatal(err)
	}
	if err := r.db.Put([]byte("short"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := r.db.Flush(); err != nil {
		t.Fatal(err)
	}
	if v, err := r.db.Get(long); err != nil || string(v) != "longest" {
		t.Fatalf("after flush: %q, %v", v, err)
	}
	fs2, err := jfs.Mount(r.disk, r.clock, jfs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(fs2, r.clock, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{string(long): "longest", "short": "v"} {
		if v, err := db2.Get([]byte(k)); err != nil || string(v) != want {
			t.Fatalf("after reopen, %d-byte key: %q, %v", len(k), v, err)
		}
	}
}

// benchKey returns the bench's key i in a buffer of its own.
func benchKey(i int) []byte { return new(Bench).nextKey(i) }

// benchValue returns a size-byte value, drawn as the bench draws it, in
// a buffer of its own.
func benchValue(rng *rand.Rand, size int) []byte { return new(Bench).nextValue(rng, size) }

// TestBenchKeyMatchesSprintf: benchKey gives the bytes of
// fmt.Sprintf("%016d", i)[:16], truncation past 16 digits included.
func TestBenchKeyMatchesSprintf(t *testing.T) {
	for _, i := range []int{0, 9, 10, 1e15 - 1, 1e16, 1e17 + 5, math.MaxInt} {
		if got, want := string(benchKey(i)), fmt.Sprintf("%016d", i)[:16]; got != want {
			t.Errorf("benchKey(%d) = %q, want %q", i, got, want)
		}
	}
}

package kvdb

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"deepnote/internal/jfs"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

// Errors reported by the store.
var (
	// ErrNotFound is returned by Get for missing keys.
	ErrNotFound = errors.New("kvdb: key not found")
	// ErrCrashed is the paper's RocksDB crash signature: the WAL could
	// not be persisted for longer than the stall limit.
	ErrCrashed = errors.New("kvdb: sync_without_flush_called: WAL persistence failure, database crashed")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("kvdb: database closed")
)

// Options tunes the engine.
type Options struct {
	// RetryHook, if set, runs after every failed WAL retry with the
	// current stall duration. Returning false abandons the blocked
	// write with an error instead of waiting for the stall limit;
	// experiments also use the hook to change testbed conditions at a
	// given virtual time (e.g. ending an attack).
	RetryHook func(stalled time.Duration) bool
	// Seed drives the memtable's deterministic skiplist heights.
	Seed int64
}

// The engine's fixed tuning.
const (
	// l0CompactTrigger is the L0 table count that schedules compaction.
	l0CompactTrigger = 4
	// walStallLimit is how long the write path tolerates WAL I/O
	// failures before the database crashes, reproducing the paper's
	// ≈81 s RocksDB time-to-crash.
	walStallLimit = 80 * time.Second
	// l0StopTrigger is the L0 table count that blocks writes until
	// compaction succeeds — RocksDB's stop condition.
	l0StopTrigger = 12
	// retryInterval is the pause between WAL retry attempts while
	// blocked.
	retryInterval = time.Second
	// cpuCostPerOp is the simulated compute cost per operation,
	// calibrated to the paper's ≈1.1e5 ops/s.
	cpuCostPerOp = 7500 * time.Nanosecond
)

// buffers are the engine's two size thresholds. Open uses
// defaultBuffers; tests open with smaller ones to reach flushes,
// compaction and WAL syncs within a few operations.
type buffers struct {
	// memtable is the memtable flush threshold in bytes.
	memtable int
	// walFlush is the WAL buffer threshold that forces a synchronous
	// flush to the filesystem.
	walFlush int
}

var defaultBuffers = buffers{memtable: 256 << 10, walFlush: 64 << 10}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// DBStats counts engine activity.
type DBStats struct {
	Puts, Gets              int64
	MemtableFlushes         int64
	Compactions             int64
	WALFlushes, WALErrors   int64
	StallEpisodes           int64
	BytesWritten, BytesRead int64
}

// DB is an open store.
type DB struct {
	fs    *jfs.FS
	clock *simclock.Virtual
	opts  Options
	buf   buffers

	mem    *Memtable
	seq    uint64
	wal    *wal
	walGen int
	sstGen int
	l0     []*SSTable // newest first
	l1     []*SSTable // sorted by min key, disjoint

	stallSince time.Time
	crashed    bool
	crashErr   error
	crashedAt  time.Time
	closed     bool

	stats DBStats
}

const walName = "WAL"

func sstName(level, gen int) string { return fmt.Sprintf("sst-%d-%06d", level, gen) }

// Open opens (or creates) a database in the root of the filesystem,
// replaying the WAL left by any previous incarnation.
func Open(fs *jfs.FS, clock *simclock.Virtual, opts Options) (*DB, error) {
	return open(fs, clock, opts, defaultBuffers)
}

func open(fs *jfs.FS, clock *simclock.Virtual, opts Options, buf buffers) (*DB, error) {
	db := &DB{
		fs:    fs,
		clock: clock,
		opts:  opts.withDefaults(),
		buf:   buf,
	}
	db.mem = NewMemtable(db.opts.Seed)

	// Discover existing tables.
	for _, name := range fs.List() {
		if !strings.HasPrefix(name, "sst-") {
			continue
		}
		parts := strings.SplitN(name, "-", 3)
		if len(parts) != 3 {
			continue
		}
		level, err1 := strconv.Atoi(parts[1])
		gen, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		t, err := openSSTable(fs, name)
		if err != nil {
			return nil, err
		}
		if gen >= db.sstGen {
			db.sstGen = gen + 1
		}
		// The sequence counter must resume above everything already
		// persisted, or resurrected old entries would shadow new writes.
		if t.MaxSeq() > db.seq {
			db.seq = t.MaxSeq()
		}
		if level == 0 {
			db.l0 = append(db.l0, t)
		} else {
			db.l1 = append(db.l1, t)
		}
	}
	// L0: newest (highest gen) first.
	sort.Slice(db.l0, func(i, j int) bool { return db.l0[i].Name > db.l0[j].Name })
	sort.Slice(db.l1, func(i, j int) bool {
		return bytes.Compare(db.l1[i].minKey, db.l1[j].minKey) < 0
	})

	// WAL recovery.
	wf, err := fs.Open(walName)
	if errors.Is(err, jfs.ErrNotFound) {
		wf, err = fs.Create(walName)
	}
	if err != nil {
		return nil, err
	}
	recs, err := replayWAL(wf)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if rec.seq > db.seq {
			db.seq = rec.seq
		}
		switch rec.op {
		case walOpPut:
			db.mem.Put(rec.key, rec.value, rec.seq)
		case walOpDelete:
			// The write path makes no tombstones, but the log format
			// keeps them and replay honours them.
			db.mem.insert(rec.key, nil, rec.seq)
		}
	}
	db.wal = newWAL(wf, db.buf.walFlush)
	return db, nil
}

// Stats returns a copy of the counters.
func (db *DB) Stats() DBStats { return db.stats }

// PublishMetrics pushes the engine's counters into a registry under the
// "kvdb." prefix (no-op on a nil registry).
func (db *DB) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s := db.stats
	reg.Add("kvdb.puts", s.Puts)
	reg.Add("kvdb.gets", s.Gets)
	// The store has no delete path; the key stays at zero so published
	// snapshots keep their schema.
	reg.Add("kvdb.deletes", 0)
	reg.Add("kvdb.memtable_flushes", s.MemtableFlushes)
	reg.Add("kvdb.compactions", s.Compactions)
	reg.Add("kvdb.wal_flushes", s.WALFlushes)
	reg.Add("kvdb.wal_errors", s.WALErrors)
	reg.Add("kvdb.stall_episodes", s.StallEpisodes)
	reg.Add("kvdb.bytes_written", s.BytesWritten)
	reg.Add("kvdb.bytes_read", s.BytesRead)
	if db.crashed {
		reg.Add("kvdb.crashes", 1)
	}
	l0, l1 := db.Levels()
	reg.MaxGauge("kvdb.l0_tables_peak", float64(l0))
	reg.MaxGauge("kvdb.l1_tables_peak", float64(l1))
}

// Crashed reports the crash state.
func (db *DB) Crashed() (bool, error) { return db.crashed, db.crashErr }

// CrashedAt returns when the database crashed (zero if it has not).
func (db *DB) CrashedAt() time.Time { return db.crashedAt }

// Seq returns the latest sequence number.
func (db *DB) Seq() uint64 { return db.seq }

// Levels returns the current table counts (L0, L1) for diagnostics.
func (db *DB) Levels() (int, int) { return len(db.l0), len(db.l1) }

func (db *DB) guard() error {
	if db.closed {
		return ErrClosed
	}
	if db.crashed {
		return db.crashErr
	}
	return nil
}

func (db *DB) chargeCPU() { db.clock.Sleep(cpuCostPerOp) }

// Put stores key → value. Under device failure the write path blocks,
// retrying the WAL, until either the device recovers or the stall limit
// expires and the database crashes.
func (db *DB) Put(key, value []byte) error {
	if err := db.guard(); err != nil {
		return err
	}
	db.chargeCPU()
	db.seq++
	if db.wal.append(walRecord{seq: db.seq, op: walOpPut, key: key, value: value}) {
		if err := db.persistWAL(); err != nil {
			return err
		}
	}
	db.mem.Put(key, value, db.seq)
	db.stats.Puts++
	db.stats.BytesWritten += int64(len(key) + len(value))
	if db.mem.ApproximateBytes() >= db.buf.memtable {
		if err := db.flushMemtable(); err != nil {
			return err
		}
	}
	db.fs.Tick()
	return nil
}

// persistWAL flushes the WAL buffer, blocking and retrying on device
// failure until success or crash.
func (db *DB) persistWAL() error {
	for {
		db.stats.WALFlushes++
		err := db.wal.flush()
		if err == nil {
			db.stallSince = time.Time{}
			return nil
		}
		db.stats.WALErrors++
		now := db.clock.Now()
		if db.stallSince.IsZero() {
			db.stallSince = now
			db.stats.StallEpisodes++
		}
		if now.Sub(db.stallSince) >= walStallLimit {
			db.crash(err)
			return db.crashErr
		}
		// Blocked: wait and retry (group-commit convoy).
		db.clock.Sleep(retryInterval)
		db.fs.Tick()
		if db.opts.RetryHook != nil && !db.opts.RetryHook(db.clock.Now().Sub(db.stallSince)) {
			return fmt.Errorf("kvdb: write abandoned while device stalled: %w", err)
		}
	}
}

// SetRetryHook installs (or clears) the WAL retry hook; see
// Options.RetryHook.
func (db *DB) SetRetryHook(hook func(stalled time.Duration) bool) {
	db.opts.RetryHook = hook
}

func (db *DB) crash(cause error) {
	db.crashed = true
	db.crashedAt = db.clock.Now()
	db.crashErr = fmt.Errorf("%w: %v", ErrCrashed, cause)
}

// flushMemtable writes the memtable as a new L0 table and rotates the WAL.
func (db *DB) flushMemtable() error {
	if db.mem.Len() == 0 {
		return nil
	}
	// RocksDB's stop condition: too many L0 files block writes until
	// compaction clears the backlog.
	if len(db.l0) >= l0StopTrigger {
		if err := db.compact(); err != nil {
			return err
		}
	}
	entries := db.mem.Entries()
	name := sstName(0, db.sstGen)
	t, err := writeSSTable(db.fs, name, entries)
	if err != nil {
		return db.storageFailure(err)
	}
	db.sstGen++
	db.l0 = append([]*SSTable{t}, db.l0...)
	db.stats.MemtableFlushes++

	// Rotate the WAL now that its contents are durable in the table.
	if err := db.rotateWAL(); err != nil {
		return err
	}
	db.mem = NewMemtable(db.opts.Seed + int64(db.sstGen))

	if len(db.l0) >= l0CompactTrigger {
		if err := db.compact(); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) rotateWAL() error {
	if err := db.wal.sync(); err != nil {
		return db.storageFailure(err)
	}
	if err := db.fs.Remove(walName); err != nil {
		return db.storageFailure(err)
	}
	wf, err := db.fs.Create(walName)
	if err != nil {
		return db.storageFailure(err)
	}
	db.wal = newWAL(wf, db.buf.walFlush)
	return nil
}

// storageFailure routes non-WAL storage errors through the same stall
// accounting as WAL failures: persistent failure crashes the database.
func (db *DB) storageFailure(err error) error {
	now := db.clock.Now()
	if db.stallSince.IsZero() {
		db.stallSince = now
		db.stats.StallEpisodes++
	}
	if now.Sub(db.stallSince) >= walStallLimit {
		db.crash(err)
		return db.crashErr
	}
	return err
}

// compact merges all L0 tables with the overlapping part of L1 into a new
// sorted run of L1 tables.
func (db *DB) compact() error {
	if len(db.l0) == 0 {
		return nil
	}
	merged := make(map[string]Entry)
	// Oldest first so newer entries overwrite.
	all := append([]*SSTable{}, db.l1...)
	for i := len(db.l0) - 1; i >= 0; i-- {
		all = append(all, db.l0[i])
	}
	for _, t := range all {
		entries, err := t.Entries()
		if err != nil {
			return db.storageFailure(err)
		}
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

	// Write replacement L1 run, splitting near the file-size ceiling.
	const targetBytes = 1 << 20
	var newL1 []*SSTable
	var batch []Entry
	var batchBytes int
	flushBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		t, err := writeSSTable(db.fs, sstName(1, db.sstGen), batch)
		if err != nil {
			return db.storageFailure(err)
		}
		db.sstGen++
		newL1 = append(newL1, t)
		batch = nil
		batchBytes = 0
		return nil
	}
	for _, k := range keys {
		e := merged[k]
		batch = append(batch, e)
		batchBytes += len(e.Key) + len(e.Value) + 16
		if batchBytes >= targetBytes {
			if err := flushBatch(); err != nil {
				return err
			}
		}
	}
	if err := flushBatch(); err != nil {
		return err
	}

	// Retire the inputs.
	for _, t := range append(append([]*SSTable{}, db.l0...), db.l1...) {
		if err := db.fs.Remove(t.Name); err != nil {
			return db.storageFailure(err)
		}
	}
	db.l0 = nil
	db.l1 = newL1
	db.stats.Compactions++
	db.stallSince = time.Time{}
	return nil
}

// Get returns the value for key, or ErrNotFound.
func (db *DB) Get(key []byte) ([]byte, error) {
	if err := db.guard(); err != nil {
		return nil, err
	}
	db.chargeCPU()
	db.stats.Gets++
	if v, found := db.mem.Get(key); found {
		if v == nil {
			return nil, ErrNotFound
		}
		db.stats.BytesRead += int64(len(v))
		return append([]byte(nil), v...), nil
	}
	for _, t := range db.l0 {
		e, found, err := t.Get(key)
		if err != nil {
			return nil, err
		}
		if found {
			if e.Value == nil {
				return nil, ErrNotFound
			}
			db.stats.BytesRead += int64(len(e.Value))
			return e.Value, nil
		}
	}
	// L1 is disjoint: binary search for the covering table.
	i := sort.Search(len(db.l1), func(i int) bool {
		return bytes.Compare(db.l1[i].maxKey, key) >= 0
	})
	if i < len(db.l1) {
		e, found, err := db.l1[i].Get(key)
		if err != nil {
			return nil, err
		}
		if found && e.Value != nil {
			db.stats.BytesRead += int64(len(e.Value))
			return e.Value, nil
		}
	}
	return nil, ErrNotFound
}

// Flush persists the memtable and WAL durably.
func (db *DB) Flush() error {
	if err := db.guard(); err != nil {
		return err
	}
	if err := db.persistWAL(); err != nil {
		return err
	}
	if db.mem.Len() > 0 {
		if err := db.flushMemtable(); err != nil {
			return err
		}
	}
	return db.fs.Sync()
}

// Close flushes and marks the handle unusable.
func (db *DB) Close() error {
	if db.closed {
		return ErrClosed
	}
	var err error
	if !db.crashed {
		err = db.Flush()
	}
	db.closed = true
	return err
}

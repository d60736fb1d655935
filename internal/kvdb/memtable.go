// Package kvdb is an LSM-tree key-value store in the spirit of RocksDB,
// built on the simulated journaling filesystem. It exists so the paper's
// RocksDB experiments (Table 2's readwhilewriting degradation and Table 3's
// WAL-sync crash) run against a real storage engine: a skiplist memtable, a
// write-ahead log, sorted-table files with index and bloom filter, a flush
// path, and L0→L1 compaction.
package kvdb

import (
	"bytes"
	"math/rand"
)

const maxSkipHeight = 12

type skipNode struct {
	key   []byte
	value []byte // nil = tombstone
	seq   uint64
	next  [maxSkipHeight]*skipNode
}

// Memtable is an ordered in-memory write buffer. Later sequence numbers
// shadow earlier ones for the same key; a nil value is a tombstone.
type Memtable struct {
	head   *skipNode
	height int
	rng    *rand.Rand
	bytes  int
	count  int
}

// NewMemtable returns an empty memtable with a deterministic level
// generator.
func NewMemtable(seed int64) *Memtable {
	return &Memtable{
		head:   &skipNode{},
		height: 1,
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// ApproximateBytes returns the payload bytes buffered.
func (m *Memtable) ApproximateBytes() int { return m.bytes }

// Len returns the number of live nodes (distinct key+seq insertions).
func (m *Memtable) Len() int { return m.count }

func (m *Memtable) randomHeight() int {
	h := 1
	for h < maxSkipHeight && m.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// Put inserts or overwrites key with value at sequence seq.
func (m *Memtable) Put(key, value []byte, seq uint64) {
	m.insert(key, append([]byte(nil), value...), seq)
}

func (m *Memtable) insert(key, value []byte, seq uint64) {
	var update [maxSkipHeight]*skipNode
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && bytes.Compare(x.next[lvl].key, key) < 0 {
			x = x.next[lvl]
		}
		update[lvl] = x
	}
	// Exact key match: overwrite in place if the new write is newer.
	if n := x.next[0]; n != nil && bytes.Equal(n.key, key) {
		if seq >= n.seq {
			m.bytes += len(value) - len(n.value)
			n.value = value
			n.seq = seq
		}
		return
	}
	h := m.randomHeight()
	if h > m.height {
		for lvl := m.height; lvl < h; lvl++ {
			update[lvl] = m.head
		}
		m.height = h
	}
	n := &skipNode{key: append([]byte(nil), key...), value: value, seq: seq}
	for lvl := 0; lvl < h; lvl++ {
		n.next[lvl] = update[lvl].next[lvl]
		update[lvl].next[lvl] = n
	}
	m.bytes += len(key) + len(value)
	m.count++
}

// Get returns the value for key. found=false means the memtable has no
// entry; found=true with nil value means a tombstone.
func (m *Memtable) Get(key []byte) (value []byte, found bool) {
	x := m.head
	for lvl := m.height - 1; lvl >= 0; lvl-- {
		for x.next[lvl] != nil && bytes.Compare(x.next[lvl].key, key) < 0 {
			x = x.next[lvl]
		}
	}
	if n := x.next[0]; n != nil && bytes.Equal(n.key, key) {
		return n.value, true
	}
	return nil, false
}

// Entry is one key/value/seq triple emitted by iteration.
type Entry struct {
	Key   []byte
	Value []byte // nil = tombstone
	Seq   uint64
}

// Entries returns all entries in key order.
func (m *Memtable) Entries() []Entry {
	out := make([]Entry, 0, m.count)
	for n := m.head.next[0]; n != nil; n = n.next[0] {
		out = append(out, Entry{Key: n.key, Value: n.value, Seq: n.seq})
	}
	return out
}

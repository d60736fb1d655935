package kvdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"deepnote/internal/jfs"
)

const sstMagic = 0x5353545F4E4F5445 // "SST_NOTE"

// bloomFilter is a fixed-k Bloom filter over keys.
type bloomFilter struct {
	bits []uint64
	n    uint32
}

func newBloom(count int) bloomFilter {
	bitsPer := 10
	n := uint32(count*bitsPer + 64)
	return bloomFilter{bits: make([]uint64, (n+63)/64), n: n}
}

func bloomHashes(key []byte) (uint32, uint32) {
	h := fnv.New64a()
	h.Write(key)
	v := h.Sum64()
	return uint32(v), uint32(v >> 32)
}

func (b *bloomFilter) add(key []byte) {
	h1, h2 := bloomHashes(key)
	for i := uint32(0); i < 4; i++ {
		bit := (h1 + i*h2) % b.n
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (b *bloomFilter) mayContain(key []byte) bool {
	if b.n == 0 {
		return true
	}
	h1, h2 := bloomHashes(key)
	for i := uint32(0); i < 4; i++ {
		bit := (h1 + i*h2) % b.n
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

type indexEntry struct {
	key    []byte
	offset int64
	length int
}

// SSTable is an immutable sorted table stored in one filesystem file. The
// in-memory index addresses every entry; the cache holds the whole file
// (page-cache semantics) so reads cost no disk I/O.
type SSTable struct {
	Name           string
	count          int
	minKey, maxKey []byte
	maxSeq         uint64
	bloom          bloomFilter
	index          []indexEntry
	cache          []byte
}

// MaxSeq returns the largest sequence number stored in the table; the
// engine restores its sequence counter from this at open time.
func (t *SSTable) MaxSeq() uint64 { return t.maxSeq }

// entrySize is the encoded size of e:
//
//	u16 keyLen | key | u32 valLen | val | u64 seq
func entrySize(e Entry) int { return 2 + len(e.Key) + 4 + len(e.Value) + 8 }

// appendEntry appends e's encoding to dst; a nil Value is a tombstone.
func appendEntry(dst []byte, e Entry) []byte {
	vlen := uint32(len(e.Value))
	if e.Value == nil {
		vlen = 0xFFFFFFFF // tombstone marker
	}
	le := binary.LittleEndian
	dst = le.AppendUint16(dst, uint16(len(e.Key)))
	dst = append(dst, e.Key...)
	dst = le.AppendUint32(dst, vlen)
	dst = append(dst, e.Value...)
	return le.AppendUint64(dst, e.Seq)
}

func decodeEntry(buf []byte) (Entry, int, error) {
	le := binary.LittleEndian
	if len(buf) < 2 {
		return Entry{}, 0, io.ErrUnexpectedEOF
	}
	klen := int(le.Uint16(buf[0:]))
	if len(buf) < 2+klen+4 {
		return Entry{}, 0, io.ErrUnexpectedEOF
	}
	key := append([]byte(nil), buf[2:2+klen]...)
	vlenRaw := le.Uint32(buf[2+klen:])
	tomb := vlenRaw == 0xFFFFFFFF
	vlen := 0
	if !tomb {
		vlen = int(vlenRaw)
	}
	if len(buf) < 2+klen+4+vlen+8 {
		return Entry{}, 0, io.ErrUnexpectedEOF
	}
	var value []byte
	if !tomb {
		value = append([]byte{}, buf[6+klen:6+klen+vlen]...)
	}
	seq := le.Uint64(buf[6+klen+vlen:])
	return Entry{Key: key, Value: value, Seq: seq}, 2 + klen + 4 + vlen + 8, nil
}

// writeSSTable persists sorted entries as a new table file. Entries must
// already be sorted by key with at most one entry per key.
func writeSSTable(fs *jfs.FS, name string, entries []Entry) (*SSTable, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("kvdb: refusing to write empty table %q", name)
	}
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	size := 12
	for _, e := range entries {
		size += entrySize(e)
	}
	raw := make([]byte, 12, size)
	binary.LittleEndian.PutUint64(raw[0:], sstMagic)
	binary.LittleEndian.PutUint32(raw[8:], uint32(len(entries)))

	t := &SSTable{
		Name:   name,
		count:  len(entries),
		minKey: entries[0].Key,
		maxKey: entries[len(entries)-1].Key,
		bloom:  newBloom(len(entries)),
		index:  make([]indexEntry, 0, len(entries)),
	}
	for _, e := range entries {
		off := len(raw)
		raw = appendEntry(raw, e)
		t.index = append(t.index, indexEntry{key: e.Key, offset: int64(off), length: len(raw) - off})
		t.bloom.add(e.Key)
		if e.Seq > t.maxSeq {
			t.maxSeq = e.Seq
		}
	}
	if _, err := f.WriteAt(raw, 0); err != nil {
		// Clean up the partial file so the directory stays sane.
		_ = fs.Remove(name)
		return nil, fmt.Errorf("kvdb: writing table %q: %w", name, err)
	}
	t.cache = raw
	return t, nil
}

// openSSTable loads an existing table, rebuilding index and bloom filter.
func openSSTable(fs *jfs.FS, name string) (*SSTable, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, f.Size())
	if _, err := f.ReadAt(raw, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("kvdb: reading table %q: %w", name, err)
	}
	if len(raw) < 12 || binary.LittleEndian.Uint64(raw[0:]) != sstMagic {
		return nil, fmt.Errorf("kvdb: %q is not a table file", name)
	}
	count := int(binary.LittleEndian.Uint32(raw[8:]))
	t := &SSTable{Name: name, count: count, bloom: newBloom(count), cache: raw}
	pos := 12
	for i := 0; i < count; i++ {
		e, n, err := decodeEntry(raw[pos:])
		if err != nil {
			return nil, fmt.Errorf("kvdb: table %q entry %d: %w", name, i, err)
		}
		t.index = append(t.index, indexEntry{key: e.Key, offset: int64(pos), length: n})
		t.bloom.add(e.Key)
		if i == 0 {
			t.minKey = e.Key
		}
		t.maxKey = e.Key
		if e.Seq > t.maxSeq {
			t.maxSeq = e.Seq
		}
		pos += n
	}
	return t, nil
}

// Get looks up key. found=false means not in this table. A found entry
// with nil Value is a tombstone.
func (t *SSTable) Get(key []byte) (Entry, bool, error) {
	if bytes.Compare(key, t.minKey) < 0 || bytes.Compare(key, t.maxKey) > 0 {
		return Entry{}, false, nil
	}
	if !t.bloom.mayContain(key) {
		return Entry{}, false, nil
	}
	i := sort.Search(len(t.index), func(i int) bool {
		return bytes.Compare(t.index[i].key, key) >= 0
	})
	if i >= len(t.index) || !bytes.Equal(t.index[i].key, key) {
		return Entry{}, false, nil
	}
	ie := t.index[i]
	e, _, err := decodeEntry(t.cache[ie.offset : ie.offset+int64(ie.length)])
	if err != nil {
		return Entry{}, false, err
	}
	return e, true, nil
}

// Entries streams the whole table (used by compaction and iterators).
func (t *SSTable) Entries() ([]Entry, error) {
	out := make([]Entry, 0, t.count)
	pos := 12
	for i := 0; i < t.count; i++ {
		e, n, err := decodeEntry(t.cache[pos:])
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		pos += n
	}
	return out, nil
}

package kvdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

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

// bloomHashes splits key's 64-bit FNV-1a hash into the filter's two
// hashes.
func bloomHashes(key []byte) (uint32, uint32) {
	v := uint64(14695981039346656037)
	for _, c := range key {
		v ^= uint64(c)
		v *= 1099511628211
	}
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

// SSTable is an immutable sorted table stored in one filesystem file. The
// cache holds the whole file (page-cache semantics) so reads cost no disk
// I/O; the index holds each entry's offset into the cache, and keys are
// compared where they lie.
type SSTable struct {
	Name   string
	maxSeq uint64
	bloom  bloomFilter
	index  []uint32
	cache  []byte
}

// MaxSeq returns the largest sequence number stored in the table; the
// engine restores its sequence counter from this at open time.
func (t *SSTable) MaxSeq() uint64 { return t.maxSeq }

// keyAt returns the key of entry i in place. Index offsets point at
// entries that decoded when the table was written or opened.
func (t *SSTable) keyAt(i int) []byte {
	off := int(t.index[i])
	klen := int(binary.LittleEndian.Uint16(t.cache[off:]))
	return t.cache[off+2 : off+2+klen]
}

func (t *SSTable) minKey() []byte { return t.keyAt(0) }
func (t *SSTable) maxKey() []byte { return t.keyAt(len(t.index) - 1) }

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

// decodeEntry decodes the entry at the start of buf and its encoded size.
// Key and Value alias buf; a tombstone decodes with a nil Value.
func decodeEntry(buf []byte) (Entry, int, error) {
	le := binary.LittleEndian
	if len(buf) < 2 {
		return Entry{}, 0, io.ErrUnexpectedEOF
	}
	klen := int(le.Uint16(buf[0:]))
	if len(buf) < 2+klen+4 {
		return Entry{}, 0, io.ErrUnexpectedEOF
	}
	vlenRaw := le.Uint32(buf[2+klen:])
	tomb := vlenRaw == 0xFFFFFFFF
	vlen := 0
	if !tomb {
		vlen = int(vlenRaw)
	}
	if len(buf) < 2+klen+4+vlen+8 {
		return Entry{}, 0, io.ErrUnexpectedEOF
	}
	e := Entry{Key: buf[2 : 2+klen], Seq: le.Uint64(buf[6+klen+vlen:])}
	if !tomb {
		e.Value = buf[6+klen : 6+klen+vlen]
	}
	return e, 2 + klen + 4 + vlen + 8, nil
}

// writeSSTable persists sorted entries as a new table file. Entries must
// already be sorted by key with at most one entry per key. The table
// copies what it keeps, so entries may alias memory the caller reuses.
func writeSSTable(fs *jfs.FS, name string, entries []Entry) (*SSTable, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("kvdb: refusing to write empty table %q", name)
	}
	size := 12
	for _, e := range entries {
		size += entrySize(e)
	}
	// The index holds u32 offsets.
	if int64(size) >= 1<<32 {
		return nil, fmt.Errorf("kvdb: table %q would be %d bytes, over the 4 GiB limit", name, size)
	}
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, 12, size)
	binary.LittleEndian.PutUint64(raw[0:], sstMagic)
	binary.LittleEndian.PutUint32(raw[8:], uint32(len(entries)))

	t := &SSTable{
		Name:  name,
		bloom: newBloom(len(entries)),
		index: make([]uint32, 0, len(entries)),
	}
	for _, e := range entries {
		t.index = append(t.index, uint32(len(raw)))
		raw = appendEntry(raw, e)
		t.bloom.add(e.Key)
		t.maxSeq = max(t.maxSeq, e.Seq)
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
	// No table is written empty, and an entry takes at least 14 bytes, so
	// a zero or larger count is corrupt.
	if count == 0 || count > (len(raw)-12)/14 {
		return nil, fmt.Errorf("kvdb: table %q claims %d entries in %d bytes", name, count, len(raw))
	}
	t := &SSTable{Name: name, bloom: newBloom(count), index: make([]uint32, 0, count), cache: raw}
	pos := 12
	for i := 0; i < count; i++ {
		e, n, err := decodeEntry(raw[pos:])
		if err != nil {
			return nil, fmt.Errorf("kvdb: table %q entry %d: %w", name, i, err)
		}
		t.index = append(t.index, uint32(pos))
		t.bloom.add(e.Key)
		t.maxSeq = max(t.maxSeq, e.Seq)
		pos += n
	}
	return t, nil
}

// Get looks up key and returns a copy of its value. found=false means not
// in this table; a found tombstone returns a nil value.
func (t *SSTable) Get(key []byte) (value []byte, found bool) {
	if bytes.Compare(key, t.minKey()) < 0 || bytes.Compare(key, t.maxKey()) > 0 {
		return nil, false
	}
	if !t.bloom.mayContain(key) {
		return nil, false
	}
	// The first entry whose key is ≥ key.
	lo, hi := 0, len(t.index)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(t.keyAt(mid), key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(t.index) || !bytes.Equal(t.keyAt(lo), key) {
		return nil, false
	}
	e, _, _ := decodeEntry(t.cache[t.index[lo]:]) // cannot fail: it decoded at write or open
	return bytes.Clone(e.Value), true
}

// runCursor walks a run of tables whose key ranges ascend and do not
// overlap, one entry at a time in key order. Its entries alias the
// tables' caches, so a head's Key is never nil.
type runCursor struct {
	run  []*SSTable
	i    int   // next entry of run[0]
	head Entry // current entry, valid while !done
	done bool
}

// next moves the cursor to the run's next entry.
func (c *runCursor) next() error {
	for len(c.run) > 0 && c.i == len(c.run[0].index) {
		c.run, c.i = c.run[1:], 0
	}
	if len(c.run) == 0 {
		c.done = true
		return nil
	}
	t := c.run[0]
	e, _, err := decodeEntry(t.cache[t.index[c.i]:])
	if err != nil {
		return fmt.Errorf("kvdb: table %q entry %d: %w", t.Name, c.i, err)
	}
	c.head = e
	c.i++
	return nil
}

package jfs

import (
	"encoding/binary"
	"fmt"
)

// Journal block magics.
const (
	jMagicSuper      = 0x4A4E4C5F53555052 // journal superblock
	jMagicDescriptor = 0x4A4E4C5F44455343 // transaction descriptor
	jMagicCommit     = 0x4A4E4C5F434F4D54 // commit record
)

// journalSuper is the journal's own superblock, stored in the first block
// of the journal region.
type journalSuper struct {
	// Start is the region-relative offset of the first live transaction
	// (== Head when the journal is empty).
	Start uint64
	// Head is the region-relative offset where the next transaction
	// will be written.
	Head uint64
	// Sequence is the sequence number the next transaction will carry.
	Sequence uint64
}

func (js *journalSuper) encode() []byte {
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], jMagicSuper)
	le.PutUint64(buf[8:], js.Start)
	le.PutUint64(buf[16:], js.Head)
	le.PutUint64(buf[24:], js.Sequence)
	return buf
}

func decodeJournalSuper(buf []byte) (journalSuper, error) {
	le := binary.LittleEndian
	if le.Uint64(buf[0:]) != jMagicSuper {
		return journalSuper{}, fmt.Errorf("jfs: bad journal superblock magic")
	}
	return journalSuper{
		Start:    le.Uint64(buf[8:]),
		Head:     le.Uint64(buf[16:]),
		Sequence: le.Uint64(buf[24:]),
	}, nil
}

// maxBlocksPerDescriptor bounds a transaction to what one descriptor block
// can index.
const maxBlocksPerDescriptor = (BlockSize - 24) / 8

func encodeDescriptor(seq uint64, blocks []uint64) []byte {
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], jMagicDescriptor)
	le.PutUint64(buf[8:], seq)
	le.PutUint64(buf[16:], uint64(len(blocks)))
	for i, b := range blocks {
		le.PutUint64(buf[24+8*i:], b)
	}
	return buf
}

func decodeDescriptor(buf []byte) (seq uint64, blocks []uint64, ok bool) {
	le := binary.LittleEndian
	if le.Uint64(buf[0:]) != jMagicDescriptor {
		return 0, nil, false
	}
	seq = le.Uint64(buf[8:])
	n := le.Uint64(buf[16:])
	if n == 0 || n > maxBlocksPerDescriptor {
		return 0, nil, false
	}
	blocks = make([]uint64, n)
	for i := range blocks {
		blocks[i] = le.Uint64(buf[24+8*i:])
	}
	return seq, blocks, true
}

func encodeCommit(seq uint64, checksum uint64) []byte {
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], jMagicCommit)
	le.PutUint64(buf[8:], seq)
	le.PutUint64(buf[16:], checksum)
	return buf
}

func decodeCommit(buf []byte) (seq, checksum uint64, ok bool) {
	le := binary.LittleEndian
	if le.Uint64(buf[0:]) != jMagicCommit {
		return 0, 0, false
	}
	return le.Uint64(buf[8:]), le.Uint64(buf[16:]), true
}

// txChecksum is a simple FNV-1a over the transaction's block numbers and
// images; enough to reject torn commits in replay.
func txChecksum(blocks []uint64, images [][]byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime
	}
	var tmp [8]byte
	for i, bn := range blocks {
		binary.LittleEndian.PutUint64(tmp[:], bn)
		for _, b := range tmp {
			mix(b)
		}
		for _, b := range images[i] {
			mix(b)
		}
	}
	return h
}

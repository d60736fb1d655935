// Package jfs is a journaling filesystem in the spirit of Ext4's
// metadata-journaling (JBD) design, built to run on the simulated block
// device. It exists so the paper's Table 3 experiment — a filesystem
// crashing with a JBD error code −5 when an acoustic attack blocks the
// journal's I/O — can be reproduced end to end against a real
// implementation rather than a stub.
//
// The design is deliberately classical: a superblock, a block-allocation
// bitmap, a fixed inode table with direct and single-indirect block
// pointers, a single root directory, and a circular journal that records
// metadata transactions (ordered mode: file data is written in place before
// the transaction that references it commits). A background commit runs on
// the virtual clock; when the device refuses journal writes for longer than
// the stall limit, the journal aborts exactly like JBD does, the filesystem
// goes read-only, and the error carries errno −5.
package jfs

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// BlockSize is the filesystem block size in bytes.
const BlockSize = 4096

// Magic identifies a jfs superblock.
const Magic = 0x4A46535F4E4F5445 // "JFS_NOTE"

// Layout constants.
const (
	// MaxNameLen bounds directory entry names.
	MaxNameLen = 24
	// DirentSize is the on-disk directory entry size.
	DirentSize = 32
	// InodeSize is the on-disk inode size.
	InodeSize = 128
	// InodesPerBlock is derived.
	InodesPerBlock = BlockSize / InodeSize
	// NDirect is the number of direct block pointers per inode.
	NDirect = 12
	// PointersPerBlock is the fan-out of the single indirect block.
	PointersPerBlock = BlockSize / 8
	// mkfsInodes is the inode count Mkfs formats; Mount reads the count
	// back from the superblock.
	mkfsInodes = 4096
)

// Filesystem states recorded in the superblock.
const (
	// StateClean means the filesystem was unmounted cleanly.
	StateClean uint32 = 1
	// StateDirty means the filesystem is mounted (or crashed while
	// mounted) and the journal may hold committed transactions.
	StateDirty uint32 = 2
	// StateAborted means the journal aborted; the filesystem needs
	// recovery before it can be written again.
	StateAborted uint32 = 3
)

// Superblock is block 0 of the device.
type Superblock struct {
	Magic         uint64
	TotalBlocks   uint64
	JournalStart  uint64
	JournalBlocks uint64
	BitmapStart   uint64
	BitmapBlocks  uint64
	InodeStart    uint64
	InodeBlocks   uint64
	DataStart     uint64
	InodeCount    uint32
	State         uint32
	MountCount    uint32
}

const superblockWireSize = 8*9 + 4*3

func (sb *Superblock) encode() []byte {
	buf := make([]byte, BlockSize)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], sb.Magic)
	le.PutUint64(buf[8:], sb.TotalBlocks)
	le.PutUint64(buf[16:], sb.JournalStart)
	le.PutUint64(buf[24:], sb.JournalBlocks)
	le.PutUint64(buf[32:], sb.BitmapStart)
	le.PutUint64(buf[40:], sb.BitmapBlocks)
	le.PutUint64(buf[48:], sb.InodeStart)
	le.PutUint64(buf[56:], sb.InodeBlocks)
	le.PutUint64(buf[64:], sb.DataStart)
	le.PutUint32(buf[72:], sb.InodeCount)
	le.PutUint32(buf[76:], sb.State)
	le.PutUint32(buf[80:], sb.MountCount)
	return buf
}

func decodeSuperblock(buf []byte) (*Superblock, error) {
	if len(buf) < superblockWireSize {
		return nil, errors.New("jfs: short superblock")
	}
	le := binary.LittleEndian
	sb := &Superblock{
		Magic:         le.Uint64(buf[0:]),
		TotalBlocks:   le.Uint64(buf[8:]),
		JournalStart:  le.Uint64(buf[16:]),
		JournalBlocks: le.Uint64(buf[24:]),
		BitmapStart:   le.Uint64(buf[32:]),
		BitmapBlocks:  le.Uint64(buf[40:]),
		InodeStart:    le.Uint64(buf[48:]),
		InodeBlocks:   le.Uint64(buf[56:]),
		DataStart:     le.Uint64(buf[64:]),
		InodeCount:    le.Uint32(buf[72:]),
		State:         le.Uint32(buf[76:]),
		MountCount:    le.Uint32(buf[80:]),
	}
	if sb.Magic != Magic {
		return nil, fmt.Errorf("jfs: bad magic %#x", sb.Magic)
	}
	return sb, nil
}

// Inode is the on-disk file metadata.
type Inode struct {
	// Used marks the inode allocated.
	Used bool
	// Size is the file size in bytes.
	Size uint64
	// Direct are the first NDirect data block numbers (0 = hole).
	Direct [NDirect]uint64
	// Indirect is the block number of the single-indirect pointer
	// block (0 = none).
	Indirect uint64
}

func (in *Inode) encode(buf []byte) {
	le := binary.LittleEndian
	var used uint32
	if in.Used {
		used = 1
	}
	le.PutUint32(buf[0:], used)
	le.PutUint64(buf[8:], in.Size)
	for i, d := range in.Direct {
		le.PutUint64(buf[16+8*i:], d)
	}
	le.PutUint64(buf[16+8*NDirect:], in.Indirect)
}

func decodeInode(buf []byte) Inode {
	le := binary.LittleEndian
	in := Inode{
		Used: le.Uint32(buf[0:]) == 1,
		Size: le.Uint64(buf[8:]),
	}
	for i := range in.Direct {
		in.Direct[i] = le.Uint64(buf[16+8*i:])
	}
	in.Indirect = le.Uint64(buf[16+8*NDirect:])
	return in
}

// Dirent is a root-directory entry.
type Dirent struct {
	// Used marks the slot occupied.
	Used bool
	// Ino is the inode number.
	Ino uint32
	// Name is the file name (≤ MaxNameLen bytes).
	Name string
}

func (d *Dirent) encode(buf []byte) {
	le := binary.LittleEndian
	var used uint16
	if d.Used {
		used = 1
	}
	le.PutUint16(buf[0:], used)
	le.PutUint32(buf[2:], d.Ino)
	name := []byte(d.Name)
	if len(name) > MaxNameLen {
		name = name[:MaxNameLen]
	}
	for i := 0; i < MaxNameLen; i++ {
		if i < len(name) {
			buf[6+i] = name[i]
		} else {
			buf[6+i] = 0
		}
	}
}

func decodeDirent(buf []byte) Dirent {
	le := binary.LittleEndian
	d := Dirent{
		Used: le.Uint16(buf[0:]) == 1,
		Ino:  le.Uint32(buf[2:]),
	}
	name := buf[6 : 6+MaxNameLen]
	end := 0
	for end < len(name) && name[end] != 0 {
		end++
	}
	d.Name = string(name[:end])
	return d
}

// MkfsOptions configures filesystem creation.
type MkfsOptions struct {
	// Blocks is the filesystem size in blocks; 0 sizes it to the device.
	Blocks uint64
	// JournalBlocks sets the journal region size (default 1024 blocks).
	JournalBlocks uint64
}

func (o MkfsOptions) withDefaults(devBlocks uint64) (MkfsOptions, error) {
	if o.Blocks == 0 || o.Blocks > devBlocks {
		o.Blocks = devBlocks
	}
	if o.JournalBlocks == 0 {
		o.JournalBlocks = 1024
	}
	if o.Blocks < o.JournalBlocks+64 {
		return o, fmt.Errorf("jfs: %d blocks too small for a %d-block journal", o.Blocks, o.JournalBlocks)
	}
	return o, nil
}

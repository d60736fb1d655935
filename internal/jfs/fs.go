package jfs

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"deepnote/internal/blockdev"
	"deepnote/internal/metrics"
	"deepnote/internal/simclock"
)

// Errors reported by the filesystem.
var (
	// ErrAborted is the JBD abort: the journal could not be written for
	// longer than the stall limit. The message carries the paper's
	// observed signature ("error -5").
	ErrAborted = errors.New("jfs: journal has aborted (JBD: Detected aborted journal, error -5)")
	// ErrNotFound is returned for missing names.
	ErrNotFound = errors.New("jfs: file not found")
	// ErrExists is returned when creating an existing name.
	ErrExists = errors.New("jfs: file exists")
	// ErrNameTooLong is returned for names over MaxNameLen bytes.
	ErrNameTooLong = errors.New("jfs: name too long")
	// ErrNoSpace is returned when blocks or inodes run out.
	ErrNoSpace = errors.New("jfs: no space left on device")
	// ErrFileTooLarge is returned when a file exceeds its block map.
	ErrFileTooLarge = errors.New("jfs: file too large")
	// ErrNotMounted is returned after Unmount.
	ErrNotMounted = errors.New("jfs: not mounted")
)

// The journal's fixed timing.
const (
	// commitInterval is the background commit cadence, ext4's commit=5
	// default.
	commitInterval = 5 * time.Second
	// stallLimit is how long the journal tolerates failing commits
	// before aborting; with the 5 s commit cadence this reproduces the
	// paper's ≈80 s Ext4 time-to-crash.
	stallLimit = 75 * time.Second
)

// Config is the mount configuration. It has no settings: the journal's
// timing is fixed (commitInterval, stallLimit).
type Config struct{}

// FS is a mounted filesystem.
type FS struct {
	dev   blockdev.Device
	clock *simclock.Virtual
	sb    *Superblock
	js    journalSuper

	bitmap   []byte
	inodes   []Inode
	dirents  []Dirent
	indirect map[uint64][]uint64 // indirect block number -> pointers

	dirty      map[uint64]bool // dirty metadata blocks (absolute numbers)
	lastCommit time.Time
	stallSince time.Time
	aborted    bool
	abortErr   error
	crashedAt  time.Time
	mounted    bool

	// CommitAttempts and CommitFailures count journal activity.
	CommitAttempts, CommitFailures int
	// Replays counts journal transactions replayed at mount.
	Replays int
}

// Mkfs formats the device. It must run against a quiet (un-attacked)
// device; formatting failures are returned verbatim.
func Mkfs(dev blockdev.Device, opts MkfsOptions) error {
	devBlocks := uint64(dev.Size()) / BlockSize
	opts, err := opts.withDefaults(devBlocks)
	if err != nil {
		return err
	}
	bitmapBlocks := (opts.Blocks/8 + BlockSize - 1) / BlockSize
	inodeBlocks := uint64((mkfsInodes + InodesPerBlock - 1) / InodesPerBlock)
	dirBlocks := uint64((mkfsInodes*DirentSize + BlockSize - 1) / BlockSize)

	sb := &Superblock{
		Magic:         Magic,
		TotalBlocks:   opts.Blocks,
		JournalStart:  1,
		JournalBlocks: journalBlocks,
		BitmapStart:   1 + journalBlocks,
		BitmapBlocks:  bitmapBlocks,
		InodeStart:    1 + journalBlocks + bitmapBlocks,
		InodeBlocks:   inodeBlocks,
		InodeCount:    mkfsInodes,
		State:         StateClean,
	}
	sb.DataStart = sb.InodeStart + inodeBlocks + dirBlocks
	if sb.DataStart >= opts.Blocks {
		return fmt.Errorf("jfs: layout overflows %d blocks", opts.Blocks)
	}

	// Superblock.
	if err := writeBlock(dev, 0, sb.encode()); err != nil {
		return err
	}
	// Empty journal.
	js := journalSuper{Start: 1, Head: 1, Sequence: 1}
	if err := writeBlock(dev, sb.JournalStart, js.encode()); err != nil {
		return err
	}
	// Bitmap with metadata blocks marked used.
	bitmap := make([]byte, bitmapBlocks*BlockSize)
	for b := uint64(0); b < sb.DataStart; b++ {
		bitmap[b/8] |= 1 << (b % 8)
	}
	for i := uint64(0); i < bitmapBlocks; i++ {
		if err := writeBlock(dev, sb.BitmapStart+i, bitmap[i*BlockSize:(i+1)*BlockSize]); err != nil {
			return err
		}
	}
	// Zeroed inode table and directory.
	zeroBlock := make([]byte, BlockSize)
	for i := uint64(0); i < inodeBlocks+dirBlocks; i++ {
		if err := writeBlock(dev, sb.InodeStart+i, zeroBlock); err != nil {
			return err
		}
	}
	return dev.Flush()
}

// Mount opens the filesystem, replaying any committed journal transactions
// left by an unclean shutdown.
func Mount(dev blockdev.Device, clock *simclock.Virtual, _ Config) (*FS, error) {
	buf := make([]byte, BlockSize)
	if _, err := dev.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("jfs: reading superblock: %w", err)
	}
	sb, err := decodeSuperblock(buf)
	if err != nil {
		return nil, err
	}
	fs := &FS{
		dev:      dev,
		clock:    clock,
		sb:       sb,
		indirect: make(map[uint64][]uint64),
		dirty:    make(map[uint64]bool),
		mounted:  true,
	}
	if err := fs.replayJournal(); err != nil {
		return nil, err
	}
	if err := fs.loadMetadata(); err != nil {
		return nil, err
	}
	fs.sb.State = StateDirty
	fs.sb.MountCount++
	if err := writeBlock(dev, 0, fs.sb.encode()); err != nil {
		return nil, fmt.Errorf("jfs: updating superblock: %w", err)
	}
	fs.lastCommit = clock.Now()
	return fs, nil
}

func (fs *FS) replayJournal() error {
	buf := make([]byte, BlockSize)
	if _, err := fs.dev.ReadAt(buf, int64(fs.sb.JournalStart)*BlockSize); err != nil {
		return fmt.Errorf("jfs: reading journal superblock: %w", err)
	}
	js, err := decodeJournalSuper(buf)
	if err != nil {
		return err
	}
	fs.js = js
	pos := js.Start
	seq := js.Sequence
	replayed := 0
	for pos != js.Head {
		desc, err := fs.readJournalBlock(pos)
		if err != nil {
			return err
		}
		dseq, blocks, ok := decodeDescriptor(desc)
		if !ok || dseq != seq {
			break
		}
		images := make([][]byte, len(blocks))
		for i := range blocks {
			img, err := fs.readJournalBlock(pos + 1 + uint64(i))
			if err != nil {
				return err
			}
			images[i] = img
		}
		cblk, err := fs.readJournalBlock(pos + 1 + uint64(len(blocks)))
		if err != nil {
			return err
		}
		cseq, sum, ok := decodeCommit(cblk)
		if !ok || cseq != dseq || sum != txChecksum(blocks, images) {
			break
		}
		// Committed transaction: apply in place.
		for i, bn := range blocks {
			if err := writeBlock(fs.dev, bn, images[i]); err != nil {
				return fmt.Errorf("jfs: replaying block %d: %w", bn, err)
			}
		}
		replayed++
		pos += uint64(len(blocks)) + 2
		seq++
	}
	fs.Replays = replayed
	// Journal fully checkpointed: mark empty.
	fs.js = journalSuper{Start: 1, Head: 1, Sequence: seq}
	if err := writeBlock(fs.dev, fs.sb.JournalStart, fs.js.encode()); err != nil {
		return fmt.Errorf("jfs: resetting journal: %w", err)
	}
	return nil
}

func (fs *FS) readJournalBlock(rel uint64) ([]byte, error) {
	if rel >= fs.sb.JournalBlocks {
		return nil, fmt.Errorf("jfs: journal offset %d out of range", rel)
	}
	buf := make([]byte, BlockSize)
	if _, err := fs.dev.ReadAt(buf, int64(fs.sb.JournalStart+rel)*BlockSize); err != nil {
		return nil, err
	}
	return buf, nil
}

func (fs *FS) loadMetadata() error {
	sb := fs.sb
	fs.bitmap = make([]byte, sb.BitmapBlocks*BlockSize)
	if _, err := fs.dev.ReadAt(fs.bitmap, int64(sb.BitmapStart)*BlockSize); err != nil {
		return fmt.Errorf("jfs: reading bitmap: %w", err)
	}
	raw := make([]byte, sb.InodeBlocks*BlockSize)
	if _, err := fs.dev.ReadAt(raw, int64(sb.InodeStart)*BlockSize); err != nil {
		return fmt.Errorf("jfs: reading inode table: %w", err)
	}
	fs.inodes = make([]Inode, sb.InodeCount)
	for i := range fs.inodes {
		fs.inodes[i] = decodeInode(raw[i*InodeSize:])
	}
	dirBlocks := fs.dirBlocks()
	rawDir := make([]byte, dirBlocks*BlockSize)
	if _, err := fs.dev.ReadAt(rawDir, int64(fs.dirStart())*BlockSize); err != nil {
		return fmt.Errorf("jfs: reading directory: %w", err)
	}
	fs.dirents = make([]Dirent, sb.InodeCount)
	for i := range fs.dirents {
		fs.dirents[i] = decodeDirent(rawDir[i*DirentSize:])
	}
	// Load indirect blocks of live inodes.
	for i := range fs.inodes {
		in := &fs.inodes[i]
		if in.Used && in.Indirect != 0 {
			buf := make([]byte, BlockSize)
			if _, err := fs.dev.ReadAt(buf, int64(in.Indirect)*BlockSize); err != nil {
				return fmt.Errorf("jfs: reading indirect block of inode %d: %w", i, err)
			}
			ptrs := make([]uint64, PointersPerBlock)
			for j := range ptrs {
				ptrs[j] = leUint64(buf[8*j:])
			}
			fs.indirect[in.Indirect] = ptrs
		}
	}
	return nil
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func (fs *FS) dirStart() uint64  { return fs.sb.InodeStart + fs.sb.InodeBlocks }
func (fs *FS) dirBlocks() uint64 { return fs.sb.DataStart - fs.dirStart() }

// Aborted reports whether the journal has aborted, and with what error.
func (fs *FS) Aborted() (bool, error) { return fs.aborted, fs.abortErr }

// PublishMetrics pushes the filesystem's journal counters into a registry
// under the "jfs." prefix (no-op on a nil registry).
func (fs *FS) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Add("jfs.commit_attempts", int64(fs.CommitAttempts))
	reg.Add("jfs.commit_failures", int64(fs.CommitFailures))
	reg.Add("jfs.replays", int64(fs.Replays))
	if fs.aborted {
		reg.Add("jfs.aborts", 1)
	}
}

// CrashedAt returns the virtual time of the journal abort (zero if none).
func (fs *FS) CrashedAt() time.Time { return fs.crashedAt }

// Superblock returns a copy of the superblock (diagnostics).
func (fs *FS) Superblock() Superblock { return *fs.sb }

// Unmount commits outstanding state and marks the filesystem clean.
func (fs *FS) Unmount() error {
	if !fs.mounted {
		return ErrNotMounted
	}
	if err := fs.Sync(); err != nil {
		fs.mounted = false
		return err
	}
	fs.sb.State = StateClean
	err := writeBlock(fs.dev, 0, fs.sb.encode())
	fs.mounted = false
	if err != nil {
		return fmt.Errorf("jfs: writing clean superblock: %w", err)
	}
	return fs.dev.Flush()
}

// guard returns the error that should preempt a mutating operation.
func (fs *FS) guard() error {
	if !fs.mounted {
		return ErrNotMounted
	}
	if fs.aborted {
		return fs.abortErr
	}
	return nil
}

// Create makes a new empty file.
func (fs *FS) Create(name string) (*File, error) {
	if err := fs.guard(); err != nil {
		return nil, err
	}
	if len(name) == 0 || len(name) > MaxNameLen {
		return nil, fmt.Errorf("%w: %q", ErrNameTooLong, name)
	}
	if _, ok := fs.lookup(name); ok {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	ino := -1
	for i := range fs.inodes {
		if !fs.inodes[i].Used {
			ino = i
			break
		}
	}
	if ino < 0 {
		return nil, fmt.Errorf("%w: out of inodes", ErrNoSpace)
	}
	slot := -1
	for i := range fs.dirents {
		if !fs.dirents[i].Used {
			slot = i
			break
		}
	}
	if slot < 0 {
		return nil, fmt.Errorf("%w: directory full", ErrNoSpace)
	}
	fs.inodes[ino] = Inode{Used: true}
	fs.dirents[slot] = Dirent{Used: true, Ino: uint32(ino), Name: name}
	fs.markInodeDirty(ino)
	fs.markDirentDirty(slot)
	fs.maybeCommit()
	return &File{fs: fs, ino: ino, name: name}, nil
}

// Open returns a handle to an existing file.
func (fs *FS) Open(name string) (*File, error) {
	if !fs.mounted {
		return nil, ErrNotMounted
	}
	ino, ok := fs.lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return &File{fs: fs, ino: ino, name: name}, nil
}

// Remove deletes a file and frees its blocks.
func (fs *FS) Remove(name string) error {
	if err := fs.guard(); err != nil {
		return err
	}
	slot := -1
	for i := range fs.dirents {
		if fs.dirents[i].Used && fs.dirents[i].Name == name {
			slot = i
			break
		}
	}
	if slot < 0 {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	ino := int(fs.dirents[slot].Ino)
	in := &fs.inodes[ino]
	for _, bn := range in.Direct {
		if bn != 0 {
			fs.freeBlock(bn)
		}
	}
	if in.Indirect != 0 {
		for _, bn := range fs.indirect[in.Indirect] {
			if bn != 0 {
				fs.freeBlock(bn)
			}
		}
		delete(fs.indirect, in.Indirect)
		fs.freeBlock(in.Indirect)
	}
	fs.inodes[ino] = Inode{}
	fs.dirents[slot] = Dirent{}
	fs.markInodeDirty(ino)
	fs.markDirentDirty(slot)
	fs.maybeCommit()
	return nil
}

// List returns the names in the root directory, sorted.
func (fs *FS) List() []string {
	var names []string
	for i := range fs.dirents {
		if fs.dirents[i].Used {
			names = append(names, fs.dirents[i].Name)
		}
	}
	sort.Strings(names)
	return names
}

func (fs *FS) lookup(name string) (int, bool) {
	for i := range fs.dirents {
		if fs.dirents[i].Used && fs.dirents[i].Name == name {
			return int(fs.dirents[i].Ino), true
		}
	}
	return 0, false
}

// --- block allocation -------------------------------------------------

func (fs *FS) allocBlock() (uint64, error) {
	for bn := fs.sb.DataStart; bn < fs.sb.TotalBlocks; bn++ {
		if fs.bitmap[bn/8]&(1<<(bn%8)) == 0 {
			fs.bitmap[bn/8] |= 1 << (bn % 8)
			fs.markBitmapDirty(bn)
			return bn, nil
		}
	}
	return 0, ErrNoSpace
}

func (fs *FS) freeBlock(bn uint64) {
	fs.bitmap[bn/8] &^= 1 << (bn % 8)
	fs.markBitmapDirty(bn)
}

// FreeBlocks counts unallocated blocks (diagnostics).
func (fs *FS) FreeBlocks() uint64 {
	var n uint64
	for bn := fs.sb.DataStart; bn < fs.sb.TotalBlocks; bn++ {
		if fs.bitmap[bn/8]&(1<<(bn%8)) == 0 {
			n++
		}
	}
	return n
}

// --- dirty metadata tracking -------------------------------------------

func (fs *FS) markBitmapDirty(bn uint64) {
	fs.dirty[fs.sb.BitmapStart+(bn/8)/BlockSize] = true
}

func (fs *FS) markInodeDirty(ino int) {
	fs.dirty[fs.sb.InodeStart+uint64(ino)/InodesPerBlock] = true
}

func (fs *FS) markDirentDirty(slot int) {
	fs.dirty[fs.dirStart()+uint64(slot*DirentSize)/BlockSize] = true
}

func (fs *FS) markIndirectDirty(bn uint64) {
	fs.dirty[bn] = true
}

// blockImage regenerates the current content of a metadata block from the
// in-memory state.
func (fs *FS) blockImage(bn uint64) []byte {
	sb := fs.sb
	buf := make([]byte, BlockSize)
	switch {
	case bn >= sb.BitmapStart && bn < sb.BitmapStart+sb.BitmapBlocks:
		off := (bn - sb.BitmapStart) * BlockSize
		copy(buf, fs.bitmap[off:off+BlockSize])
	case bn >= sb.InodeStart && bn < sb.InodeStart+sb.InodeBlocks:
		first := int((bn - sb.InodeStart) * InodesPerBlock)
		for i := 0; i < InodesPerBlock && first+i < len(fs.inodes); i++ {
			fs.inodes[first+i].encode(buf[i*InodeSize:])
		}
	case bn >= fs.dirStart() && bn < sb.DataStart:
		perBlock := BlockSize / DirentSize
		first := int(bn-fs.dirStart()) * perBlock
		for i := 0; i < perBlock && first+i < len(fs.dirents); i++ {
			fs.dirents[first+i].encode(buf[i*DirentSize:])
		}
	default:
		if ptrs, ok := fs.indirect[bn]; ok {
			for i, p := range ptrs {
				putLeUint64(buf[8*i:], p)
			}
		}
	}
	return buf
}

func putLeUint64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}

// --- journal commit ----------------------------------------------------

// Tick gives the filesystem a chance to run its background commit; any
// operation also does this implicitly.
func (fs *FS) Tick() { fs.maybeCommit() }

// Sync forces a commit of all dirty metadata now.
func (fs *FS) Sync() error {
	if err := fs.guard(); err != nil {
		return err
	}
	return fs.commitNow()
}

func (fs *FS) maybeCommit() {
	if fs.aborted || !fs.mounted {
		return
	}
	due := fs.clock.Now().Sub(fs.lastCommit) >= commitInterval
	pending := len(fs.dirty) > 0 || !fs.stallSince.IsZero()
	if due && pending {
		_ = fs.commitNow() // the abort path records the error
	}
}

func (fs *FS) commitNow() error {
	if len(fs.dirty) == 0 {
		fs.lastCommit = fs.clock.Now()
		fs.stallSince = time.Time{}
		return nil
	}
	fs.CommitAttempts++
	err := fs.writeTransaction()
	if err == nil {
		fs.lastCommit = fs.clock.Now()
		fs.stallSince = time.Time{}
		fs.dirty = make(map[uint64]bool)
		return nil
	}
	fs.CommitFailures++
	now := fs.clock.Now()
	if fs.stallSince.IsZero() {
		fs.stallSince = now
	}
	// Back the commit cadence off to the interval again.
	fs.lastCommit = now
	if now.Sub(fs.stallSince) >= stallLimit {
		fs.abort(err)
		return fs.abortErr
	}
	return fmt.Errorf("jfs: journal commit failed: %w", err)
}

func (fs *FS) abort(cause error) {
	fs.aborted = true
	fs.crashedAt = fs.clock.Now()
	fs.abortErr = fmt.Errorf("%w (errno %d): %v", ErrAborted, blockdev.EIOErrno, cause)
	fs.sb.State = StateAborted
	// Best-effort superblock update; the device is likely still dead.
	_ = writeBlockQuiet(fs.dev, 0, fs.sb.encode())
}

// writeTransaction journals the dirty set, then checkpoints it in place.
func (fs *FS) writeTransaction() error {
	blocks := make([]uint64, 0, len(fs.dirty))
	for bn := range fs.dirty {
		blocks = append(blocks, bn)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	if len(blocks) > maxBlocksPerDescriptor {
		// Split into several transactions.
		half := len(blocks) / 2
		if err := fs.writeTxn(blocks[:half]); err != nil {
			return err
		}
		return fs.writeTxn(blocks[half:])
	}
	return fs.writeTxn(blocks)
}

func (fs *FS) writeTxn(blocks []uint64) error {
	if len(blocks) == 0 {
		return nil
	}
	images := make([][]byte, len(blocks))
	for i, bn := range blocks {
		images[i] = fs.blockImage(bn)
	}
	need := uint64(len(blocks)) + 2
	head := fs.js.Head
	if head+need > fs.sb.JournalBlocks {
		// Wrap: the journal is checkpointed after every commit, so
		// wrapping to the region start is safe whenever Start == Head.
		if fs.js.Start != fs.js.Head {
			if err := fs.checkpoint(blocks, images); err != nil {
				return err
			}
		}
		head = 1
		fs.js.Start = 1
		fs.js.Head = 1
	}
	base := fs.sb.JournalStart + head
	if err := writeBlock(fs.dev, base, encodeDescriptor(fs.js.Sequence, blocks)); err != nil {
		return err
	}
	for i, img := range images {
		if err := writeBlock(fs.dev, base+1+uint64(i), img); err != nil {
			return err
		}
	}
	sum := txChecksum(blocks, images)
	if err := writeBlock(fs.dev, base+1+uint64(len(blocks)), encodeCommit(fs.js.Sequence, sum)); err != nil {
		return err
	}
	// Advance the journal head durably: the transaction is now committed.
	newJS := journalSuper{Start: fs.js.Start, Head: head + need, Sequence: fs.js.Sequence + 1}
	if err := writeBlock(fs.dev, fs.sb.JournalStart, newJS.encode()); err != nil {
		return err
	}
	if err := fs.dev.Flush(); err != nil {
		return err
	}
	fs.js = newJS
	// Checkpoint in place and retire the transaction.
	if err := fs.checkpoint(blocks, images); err != nil {
		return err
	}
	return nil
}

func (fs *FS) checkpoint(blocks []uint64, images [][]byte) error {
	for i, bn := range blocks {
		if err := writeBlock(fs.dev, bn, images[i]); err != nil {
			return err
		}
	}
	fs.js.Start = fs.js.Head
	if err := writeBlock(fs.dev, fs.sb.JournalStart, fs.js.encode()); err != nil {
		return err
	}
	return nil
}

// --- low-level helpers ---------------------------------------------------

func writeBlock(dev blockdev.Device, bn uint64, data []byte) error {
	if len(data) != BlockSize {
		return fmt.Errorf("jfs: writeBlock needs a full block, got %d bytes", len(data))
	}
	_, err := dev.WriteAt(data, int64(bn)*BlockSize)
	return err
}

func writeBlockQuiet(dev blockdev.Device, bn uint64, data []byte) error {
	_, err := dev.WriteAt(data, int64(bn)*BlockSize)
	return err
}

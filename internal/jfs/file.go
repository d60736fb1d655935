package jfs

import (
	"fmt"
	"io"
)

// File is a handle to a file in the root directory. Handles stay valid
// until the file is removed; they are not reference counted.
type File struct {
	fs  *FS
	ino int
}

// Size returns the current file size in bytes.
func (f *File) Size() int64 { return int64(f.fs.inodes[f.ino].Size) }

// MaxFileSize is the largest file the direct + single-indirect block map
// can address.
const MaxFileSize = int64(NDirect+PointersPerBlock) * BlockSize

// blockNumber returns the data block for file block index idx (0 = hole).
func (f *File) blockNumber(idx int64) uint64 {
	in := &f.fs.inodes[f.ino]
	if idx < NDirect {
		return in.Direct[idx]
	}
	if in.Indirect == 0 {
		return 0
	}
	rel := idx - NDirect
	if rel >= PointersPerBlock {
		return 0
	}
	return f.fs.indirect[in.Indirect][rel]
}

// ensureBlock allocates (if needed) and returns the data block for file
// block index idx. Fresh data blocks are zeroed on the device unless the
// caller declares it will overwrite the whole block: freed blocks get
// recycled, and a partial write into a dirty recycled block would
// otherwise expose the previous owner's bytes.
func (f *File) ensureBlock(idx int64, fullCover bool) (uint64, error) {
	in := &f.fs.inodes[f.ino]
	if idx < NDirect {
		if in.Direct[idx] == 0 {
			bn, err := f.allocDataBlock(fullCover)
			if err != nil {
				return 0, err
			}
			in.Direct[idx] = bn
			f.fs.markInodeDirty(f.ino)
		}
		return in.Direct[idx], nil
	}
	rel := idx - NDirect
	if rel >= PointersPerBlock {
		return 0, fmt.Errorf("%w: block index %d", ErrFileTooLarge, idx)
	}
	if in.Indirect == 0 {
		bn, err := f.fs.allocBlock()
		if err != nil {
			return 0, err
		}
		in.Indirect = bn
		f.fs.indirect[bn] = make([]uint64, PointersPerBlock)
		f.fs.markInodeDirty(f.ino)
		f.fs.markIndirectDirty(bn)
	}
	ptrs := f.fs.indirect[in.Indirect]
	if ptrs[rel] == 0 {
		bn, err := f.allocDataBlock(fullCover)
		if err != nil {
			return 0, err
		}
		ptrs[rel] = bn
		f.fs.markIndirectDirty(in.Indirect)
	}
	return ptrs[rel], nil
}

func (f *File) allocDataBlock(fullCover bool) (uint64, error) {
	bn, err := f.fs.allocBlock()
	if err != nil {
		return 0, err
	}
	if !fullCover {
		zeros := make([]byte, BlockSize)
		if _, err := f.fs.dev.WriteAt(zeros, int64(bn)*BlockSize); err != nil {
			f.fs.freeBlock(bn)
			return 0, fmt.Errorf("jfs: zeroing fresh block %d: %w", bn, err)
		}
	}
	return bn, nil
}

// WriteAt writes p at offset off, growing the file as needed. Data blocks
// are written in place (ordered mode); metadata changes are journaled at
// the next commit.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if err := f.fs.guard(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, fmt.Errorf("jfs: negative offset %d", off)
	}
	if off+int64(len(p)) > MaxFileSize {
		return 0, fmt.Errorf("%w: %d bytes at %d", ErrFileTooLarge, len(p), off)
	}
	// Extending past EOF: the gap between the old end and the write
	// start must read as zeros, but recycled blocks can carry stale
	// bytes — zero the allocated part of the gap explicitly.
	if size := f.Size(); off > size {
		if err := f.zeroRange(size, off); err != nil {
			return 0, err
		}
	}

	// Map the span onto physical extents, merging physically contiguous
	// blocks into single device requests the way the kernel's block layer
	// would. Sequentially allocated files get large sequential writes.
	written := 0
	for written < len(p) {
		idx := (off + int64(written)) / BlockSize
		in := (off + int64(written)) % BlockSize
		remain := int64(len(p) - written)
		bn, err := f.ensureBlock(idx, in == 0 && remain >= BlockSize)
		if err != nil {
			return written, err
		}
		run := int64(BlockSize - in) // bytes coverable in this extent
		prev := bn
		for run < remain {
			nextIdx := idx + (in+run)/BlockSize
			nbn, err := f.ensureBlock(nextIdx, remain-run >= BlockSize)
			if err != nil {
				return written, err
			}
			if nbn != prev+1 {
				break
			}
			prev = nbn
			run += BlockSize
		}
		n := int64(len(p) - written)
		if n > run {
			n = run
		}
		if _, err := f.fs.dev.WriteAt(p[written:written+int(n)], int64(bn)*BlockSize+in); err != nil {
			return written, fmt.Errorf("jfs: data write: %w", err)
		}
		written += int(n)
	}
	if newSize := uint64(off) + uint64(len(p)); newSize > f.fs.inodes[f.ino].Size {
		f.fs.inodes[f.ino].Size = newSize
		f.fs.markInodeDirty(f.ino)
	}
	f.fs.maybeCommit()
	return written, nil
}

// Append writes p at the end of the file.
func (f *File) Append(p []byte) (int, error) {
	return f.WriteAt(p, f.Size())
}

// zeroRange writes zeros over [from, to) wherever blocks are already
// allocated; unallocated blocks are holes and read as zeros anyway.
func (f *File) zeroRange(from, to int64) error {
	for from < to {
		idx := from / BlockSize
		in := from % BlockSize
		n := to - from
		if n > BlockSize-in {
			n = BlockSize - in
		}
		if bn := f.blockNumber(idx); bn != 0 {
			zeros := make([]byte, n)
			if _, err := f.fs.dev.WriteAt(zeros, int64(bn)*BlockSize+in); err != nil {
				return fmt.Errorf("jfs: zeroing extension gap: %w", err)
			}
		}
		from += n
	}
	return nil
}

// ReadAt reads into p from offset off. Reads past EOF return io.EOF after
// the available bytes, matching io.ReaderAt semantics.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if !f.fs.mounted {
		return 0, ErrNotMounted
	}
	if off < 0 {
		return 0, fmt.Errorf("jfs: negative offset %d", off)
	}
	size := f.Size()
	if off >= size {
		return 0, io.EOF
	}
	want := int64(len(p))
	if off+want > size {
		want = size - off
	}
	read := int64(0)
	for read < want {
		idx := (off + read) / BlockSize
		in := (off + read) % BlockSize
		bn := f.blockNumber(idx)
		if bn == 0 {
			n := want - read
			if n > BlockSize-in {
				n = BlockSize - in
			}
			for i := int64(0); i < n; i++ {
				p[read+i] = 0
			}
			read += n
			continue
		}
		// Merge physically contiguous blocks into one device read.
		run := int64(BlockSize - in)
		prev := bn
		for run < want-read {
			nbn := f.blockNumber(idx + (in+run)/BlockSize)
			if nbn != prev+1 {
				break
			}
			prev = nbn
			run += BlockSize
		}
		n := want - read
		if n > run {
			n = run
		}
		if _, err := f.fs.dev.ReadAt(p[read:read+n], int64(bn)*BlockSize+in); err != nil {
			return int(read), fmt.Errorf("jfs: data read: %w", err)
		}
		read += n
	}
	f.fs.maybeCommit()
	if read < int64(len(p)) {
		return int(read), io.EOF
	}
	return int(read), nil
}

// Sync commits the file's metadata (and everything else pending) durably.
func (f *File) Sync() error { return f.fs.Sync() }

// Truncate sets the file size. Growing leaves a hole; shrinking frees whole
// blocks beyond the new end.
func (f *File) Truncate(size int64) error {
	if err := f.fs.guard(); err != nil {
		return err
	}
	if size < 0 || size > MaxFileSize {
		return fmt.Errorf("%w: truncate to %d", ErrFileTooLarge, size)
	}
	in := &f.fs.inodes[f.ino]
	oldBlocks := (int64(in.Size) + BlockSize - 1) / BlockSize
	newBlocks := (size + BlockSize - 1) / BlockSize
	// Shrinking: the retained final block's tail beyond the new size must
	// not leak the old content back if the file later grows over it.
	if size < int64(in.Size) && size%BlockSize != 0 {
		end := size + (BlockSize - size%BlockSize)
		if end > int64(in.Size) {
			end = int64(in.Size)
		}
		if err := f.zeroRange(size, end); err != nil {
			return err
		}
	}
	for idx := newBlocks; idx < oldBlocks; idx++ {
		if idx < NDirect {
			if in.Direct[idx] != 0 {
				f.fs.freeBlock(in.Direct[idx])
				in.Direct[idx] = 0
			}
			continue
		}
		if in.Indirect == 0 {
			continue
		}
		rel := idx - NDirect
		ptrs := f.fs.indirect[in.Indirect]
		if ptrs[rel] != 0 {
			f.fs.freeBlock(ptrs[rel])
			ptrs[rel] = 0
			f.fs.markIndirectDirty(in.Indirect)
		}
	}
	in.Size = uint64(size)
	f.fs.markInodeDirty(f.ino)
	f.fs.maybeCommit()
	return nil
}

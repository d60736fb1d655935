package jfs

import (
	"fmt"
)

// FsckReport is the outcome of a consistency check.
type FsckReport struct {
	// Clean is true when no problems were found.
	Clean bool
	// Problems lists human-readable findings.
	Problems []string
	// Files, UsedBlocks, FreeBlocks summarize the filesystem.
	Files      int
	UsedBlocks uint64
	FreeBlocks uint64
}

func (r *FsckReport) problemf(format string, args ...any) {
	r.Clean = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck verifies the mounted filesystem's invariants against its in-memory
// state: every block referenced by a live inode is marked used exactly
// once, directory entries point at live inodes, no two files share a
// block, and the superblock layout is self-consistent. It is read-only.
func (fs *FS) Fsck() FsckReport {
	rep := FsckReport{Clean: true}
	if !fs.mounted {
		rep.problemf("filesystem not mounted")
		return rep
	}
	sb := fs.sb

	// Layout sanity.
	if sb.DataStart <= sb.InodeStart || sb.DataStart >= sb.TotalBlocks {
		rep.problemf("superblock layout corrupt: data start %d of %d blocks", sb.DataStart, sb.TotalBlocks)
	}

	// Directory entries must point at live inodes, and names must be
	// unique.
	seenNames := make(map[string]bool)
	liveInodes := make(map[int]string)
	for _, de := range fs.dirents {
		if !de.Used {
			continue
		}
		rep.Files++
		if seenNames[de.Name] {
			rep.problemf("duplicate directory entry %q", de.Name)
		}
		seenNames[de.Name] = true
		if int(de.Ino) >= len(fs.inodes) {
			rep.problemf("entry %q points at inode %d beyond table", de.Name, de.Ino)
			continue
		}
		if !fs.inodes[de.Ino].Used {
			rep.problemf("entry %q points at free inode %d", de.Name, de.Ino)
			continue
		}
		if prev, dup := liveInodes[int(de.Ino)]; dup {
			rep.problemf("inode %d referenced by both %q and %q", de.Ino, prev, de.Name)
		}
		liveInodes[int(de.Ino)] = de.Name
	}

	// Inodes used but not referenced are orphans.
	for i := range fs.inodes {
		if fs.inodes[i].Used {
			if _, ok := liveInodes[i]; !ok {
				rep.problemf("orphan inode %d (used but unreferenced)", i)
			}
		}
	}

	// Walk every live inode's block map: blocks must be in the data
	// region, marked used, and unshared.
	owner := make(map[uint64]int)
	claim := func(bn uint64, ino int) {
		if bn == 0 {
			return
		}
		if bn < sb.DataStart || bn >= sb.TotalBlocks {
			rep.problemf("inode %d references out-of-range block %d", ino, bn)
			return
		}
		if fs.bitmap[bn/8]&(1<<(bn%8)) == 0 {
			rep.problemf("inode %d references free block %d", ino, bn)
		}
		if prev, dup := owner[bn]; dup {
			rep.problemf("block %d shared by inodes %d and %d", bn, prev, ino)
		}
		owner[bn] = ino
	}
	for ino := range liveInodes {
		in := &fs.inodes[ino]
		for _, bn := range in.Direct {
			claim(bn, ino)
		}
		if in.Indirect != 0 {
			claim(in.Indirect, ino)
			ptrs, ok := fs.indirect[in.Indirect]
			if !ok {
				rep.problemf("inode %d indirect block %d not loaded", ino, in.Indirect)
			} else {
				for _, bn := range ptrs {
					claim(bn, ino)
				}
			}
		}
	}

	// Bitmap accounting: every used data block must have an owner.
	for bn := sb.DataStart; bn < sb.TotalBlocks; bn++ {
		used := fs.bitmap[bn/8]&(1<<(bn%8)) != 0
		if used {
			rep.UsedBlocks++
			if _, ok := owner[bn]; !ok {
				rep.problemf("leaked block %d (marked used, no owner)", bn)
			}
		} else {
			rep.FreeBlocks++
		}
	}
	return rep
}

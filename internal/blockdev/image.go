package blockdev

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// Image persistence: a sparse dump of a Disk's written chunks, so CLI
// tools can carry a filesystem or database across process runs. The
// format is versioned and length-prefixed:
//
//	u64 magic | u32 version | u64 deviceSize | u32 chunkSize | u32 count
//	count × ( u64 baseOffset | chunk bytes )
const (
	imageMagic   = 0x444E4F5445494D47 // "DNOTEIMG"
	imageVersion = 1
)

// ErrBadImage reports an unreadable or mismatched image.
var ErrBadImage = errors.New("blockdev: bad image")

// SaveImage writes the disk's current contents sparsely. Only allocated
// chunks are emitted (those some non-zero write has reached, or an image
// supplied), each in full: an absent page is written as zeros and a
// shared page once per slot, so the image does not depend on how the
// store shares. A freshly formatted 500 GB drive dumps in kilobytes.
// Virtual time is not charged: imaging models an out-of-band operation
// (e.g. copying a VM disk), not victim I/O.
func (d *Disk) SaveImage(w io.Writer) error {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	header := make([]byte, 8+4+8+4+4)
	le.PutUint64(header[0:], imageMagic)
	le.PutUint32(header[8:], imageVersion)
	le.PutUint64(header[12:], uint64(d.Size()))
	le.PutUint32(header[20:], chunkSize)
	le.PutUint32(header[24:], uint32(len(d.data)))
	if _, err := bw.Write(header); err != nil {
		return err
	}
	bases := make([]int64, 0, len(d.data))
	for base := range d.data {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	var off [8]byte
	for _, base := range bases {
		le.PutUint64(off[:], uint64(base))
		if _, err := bw.Write(off[:]); err != nil {
			return err
		}
		for _, pg := range d.data[base].pages {
			b := zeroChunk[:pageSize]
			if pg != nil {
				b = pg[:]
			}
			if _, err := bw.Write(b); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadImage replaces the disk's contents with an image previously written
// by SaveImage. Every page it loads is owned by its slot, and the page
// the store remembered for sharing is forgotten. The image's device size
// must not exceed this disk's. The header is untrusted: a chunk count
// larger than the disk can hold, or a chunk offset that repeats, is
// rejected with ErrBadImage, and storage grows only as chunk bodies
// actually arrive.
func (d *Disk) LoadImage(r io.Reader) error {
	br := bufio.NewReader(r)
	header := make([]byte, 8+4+8+4+4)
	if _, err := io.ReadFull(br, header); err != nil {
		return fmt.Errorf("%w: header: %v", ErrBadImage, err)
	}
	le := binary.LittleEndian
	if le.Uint64(header[0:]) != imageMagic {
		return fmt.Errorf("%w: magic mismatch", ErrBadImage)
	}
	if v := le.Uint32(header[8:]); v != imageVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadImage, v)
	}
	if size := le.Uint64(header[12:]); size > uint64(d.Size()) {
		return fmt.Errorf("%w: image of %d bytes exceeds device of %d", ErrBadImage, size, d.Size())
	}
	if cs := le.Uint32(header[20:]); cs != chunkSize {
		return fmt.Errorf("%w: chunk size %d, want %d", ErrBadImage, cs, chunkSize)
	}
	count := int64(le.Uint32(header[24:]))
	limit := d.Size() / chunkSize
	if d.Size()%chunkSize != 0 {
		limit++ // a partial last chunk
	}
	if count > limit {
		return fmt.Errorf("%w: %d chunks, device holds at most %d", ErrBadImage, count, limit)
	}
	data := make(map[int64]*chunk)
	var off [8]byte
	for i := int64(0); i < count; i++ {
		if _, err := io.ReadFull(br, off[:]); err != nil {
			return fmt.Errorf("%w: chunk %d offset: %v", ErrBadImage, i, err)
		}
		base := int64(le.Uint64(off[:]))
		if base < 0 || base%chunkSize != 0 || base >= d.Size() {
			return fmt.Errorf("%w: chunk %d at invalid offset %d", ErrBadImage, i, base)
		}
		if _, dup := data[base]; dup {
			return fmt.Errorf("%w: chunk %d repeats offset %d", ErrBadImage, i, base)
		}
		// One allocation holds the chunk's 16 pages, each owned by its
		// slot.
		body := make([]byte, chunkSize)
		if _, err := io.ReadFull(br, body); err != nil {
			return fmt.Errorf("%w: chunk %d body: %v", ErrBadImage, i, err)
		}
		c := new(chunk)
		for j := range c.pages {
			c.pages[j] = (*page)(body[j*pageSize:])
		}
		data[base] = c
	}
	d.replaceStore(data)
	return nil
}

// SaveImageFile writes the disk's image to path, creating or truncating
// the file.
func (d *Disk) SaveImageFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(d.SaveImage(f), f.Close())
}

// LoadImageFile loads the image saved at path. A missing file means no
// image yet: it returns loaded false and a nil error and leaves the disk
// as it was. Any other error fails, so a caller never runs on a fresh
// disk and then overwrites an image it could not read.
func (d *Disk) LoadImageFile(path string) (loaded bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := errors.Join(d.LoadImage(f), f.Close()); err != nil {
		return false, err
	}
	return true, nil
}

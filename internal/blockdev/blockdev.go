// Package blockdev provides the block-device abstraction between the
// mechanical drive model and the software substrates (filesystem, KV store,
// workload generators). It stores real bytes (so filesystems and databases
// round-trip their data), charges virtual time through the drive model, and
// surfaces drive faults as EIO-style errors exactly where Linux would:
// buffer I/O errors on the failed request. The byte store is sparse and
// shares pages: only chunks that some non-zero write has reached (or an
// image supplied) allocate, and within a chunk each 4 KiB page is stored
// only once some non-zero data reaches it. A whole-page write into an
// absent page that repeats the last whole page stored points at that page
// instead of copying it, and a shared page is copied before it is written.
// Writing zeros over unwritten space, or a workload's one repeated block
// over fresh space, costs drive time but almost no memory.
package blockdev

import (
	"errors"
	"fmt"
	"time"

	"deepnote/internal/hdd"
	"deepnote/internal/metrics"
)

// Errors surfaced by the device.
var (
	// ErrIO is the EIO analogue: the device could not complete the
	// request. The paper's crash signatures (JBD error -5, buffer I/O
	// errors) stem from this error reaching the software stack.
	ErrIO = errors.New("blockdev: I/O error (errno -5)")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("blockdev: device closed")
)

// ioError is a failed media access: an ErrIO that keeps its request and
// the drive's cause and builds its message only when printed. Under
// attack most shard ops fail, and no caller on the serving path reads the
// text, so formatting it eagerly was pure allocation. The message is
// "<ErrIO>: read N@OFF: <cause>" (write likewise), or "<ErrIO>: flush:
// <cause>".
type ioError struct {
	op     string // "read", "write" or "flush"
	n, off int64  // request bytes and offset; unused for flush
	cause  error
}

func (e *ioError) Error() string {
	if e.op == "flush" {
		return fmt.Sprintf("%v: flush: %v", ErrIO, e.cause)
	}
	return fmt.Sprintf("%v: %s %d@%d: %v", ErrIO, e.op, e.n, e.off, e.cause)
}

// Unwrap makes errors.Is(err, ErrIO) hold. The drive's cause is part of
// the message only, not the chain.
func (e *ioError) Unwrap() error { return ErrIO }

// EIOErrno is the errno value Linux reports for EIO; Ext4's JBD layer logs
// journal aborts with this code, which the paper observes ("error code -5").
const EIOErrno = -5

// Device is the interface the software substrates program against.
type Device interface {
	// ReadAt reads len(p) bytes at off, charging virtual time.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt writes len(p) bytes at off, charging virtual time.
	WriteAt(p []byte, off int64) (int, error)
	// Flush forces device caches to media.
	Flush() error
	// Size returns the device capacity in bytes.
	Size() int64
}

// Stats aggregates request-level accounting.
type Stats struct {
	ReadOps, WriteOps     int64
	ReadBytes, WriteBytes int64
	ReadErrs, WriteErrs   int64
	FlushOps, FlushErrs   int64
	// SilentCorruptions counts adjacent-track squeezes realized in the
	// backing store (integrity attack surface; zero unless enabled).
	SilentCorruptions int64
	// TotalReadLatency and TotalWriteLatency sum per-request service
	// times, including retries inside the drive.
	TotalReadLatency, TotalWriteLatency time.Duration
}

// Disk is a Device backed by the mechanical drive model plus an in-memory
// byte store. The store indexes 64 KiB chunks by base offset, and each
// chunk holds 16 pointers to 4 KiB pages; an absent chunk or page reads as
// zeros. A chunk allocates only when some non-zero data reaches it (or an
// image supplies it), and stays once allocated, even if later writes zero
// it again. A page allocates when non-zero data first reaches it, except
// that a whole-page write into an absent page whose bytes equal the last
// whole page stored points the slot at that page and marks both slots
// shared. Any write into a shared slot copies its page first, so no write
// is seen through another slot. Pages are shared only into absent slots:
// an owned page is always written in place.
//
// Disk is not safe for concurrent use; one owner, like hdd.Drive.
type Disk struct {
	drive  *hdd.Drive
	data   map[int64]*chunk // chunk base offset -> chunk
	last   pageRef          // slot of the last whole page stored
	closed bool
	stats  Stats
	// MaxRequest bounds a single media access; larger requests split.
	maxRequest int64
}

const (
	chunkSize     = 1 << 16 // 64 KiB backing-store chunks
	pageSize      = 1 << 12 // 4 KiB pages within a chunk
	pagesPerChunk = chunkSize / pageSize
)

// page is the store's unit of sharing and copy-on-write.
type page = [pageSize]byte

// chunk is one 64 KiB span of the store: a nil page reads as zeros, and
// bit i of shared marks pages[i] as possibly referenced from another slot.
type chunk struct {
	pages  [pagesPerChunk]*page
	shared uint16
}

// pageRef names one page slot of the store; the zero value names none.
type pageRef struct {
	c *chunk
	i int
}

// zeroChunk is never written: copyIn tests a span for all zeros by
// comparing it with a prefix of this array, and SaveImage writes absent
// pages from it.
var zeroChunk [chunkSize]byte

// NewDisk wraps a drive in a Device.
func NewDisk(drive *hdd.Drive) *Disk {
	return &Disk{
		drive:      drive,
		data:       make(map[int64]*chunk),
		maxRequest: 1 << 20,
	}
}

// Size returns the device capacity.
func (d *Disk) Size() int64 { return d.drive.Capacity() }

// Stats returns a copy of the request counters.
func (d *Disk) Stats() Stats { return d.stats }

// PublishMetrics pushes the device's counters into a registry under the
// "blockdev." prefix (no-op on a nil registry).
func (d *Disk) PublishMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s := d.Stats()
	reg.Add("blockdev.read_ops", s.ReadOps)
	reg.Add("blockdev.write_ops", s.WriteOps)
	reg.Add("blockdev.read_bytes", s.ReadBytes)
	reg.Add("blockdev.write_bytes", s.WriteBytes)
	reg.Add("blockdev.read_errors", s.ReadErrs)
	reg.Add("blockdev.write_errors", s.WriteErrs)
	reg.Add("blockdev.flush_ops", s.FlushOps)
	reg.Add("blockdev.flush_errors", s.FlushErrs)
	reg.Add("blockdev.silent_corruptions", s.SilentCorruptions)
	reg.Add("blockdev.read_latency_ns_total", int64(s.TotalReadLatency))
	reg.Add("blockdev.write_latency_ns_total", int64(s.TotalWriteLatency))
}

// Close marks the device unusable.
func (d *Disk) Close() error {
	d.closed = true
	return nil
}

// ReadAt implements Device.
func (d *Disk) ReadAt(p []byte, off int64) (int, error) {
	if d.closed {
		return 0, ErrClosed
	}
	if err := d.checkRange(off, int64(len(p))); err != nil {
		return 0, err
	}
	n := 0
	for n < len(p) {
		chunk := min64(int64(len(p)-n), d.maxRequest)
		res := d.drive.Access(hdd.OpRead, off+int64(n), chunk)
		d.stats.TotalReadLatency += res.Latency
		if res.Err != nil {
			d.stats.ReadErrs++
			return n, &ioError{op: "read", n: chunk, off: off + int64(n), cause: res.Err}
		}
		d.copyOut(p[n:n+int(chunk)], off+int64(n))
		d.stats.ReadOps++
		d.stats.ReadBytes += chunk
		n += int(chunk)
	}
	return n, nil
}

// WriteAt implements Device.
func (d *Disk) WriteAt(p []byte, off int64) (int, error) {
	if d.closed {
		return 0, ErrClosed
	}
	if err := d.checkRange(off, int64(len(p))); err != nil {
		return 0, err
	}
	n := 0
	for n < len(p) {
		chunk := min64(int64(len(p)-n), d.maxRequest)
		res := d.drive.Access(hdd.OpWrite, off+int64(n), chunk)
		d.stats.TotalWriteLatency += res.Latency
		d.applyCorruptions(res.AdjacentCorruptions)
		if res.Err != nil {
			d.stats.WriteErrs++
			return n, &ioError{op: "write", n: chunk, off: off + int64(n), cause: res.Err}
		}
		d.copyIn(p[n:n+int(chunk)], off+int64(n))
		d.stats.WriteOps++
		d.stats.WriteBytes += chunk
		n += int(chunk)
	}
	return n, nil
}

// applyCorruptions realizes the drive's silent adjacent-track squeezes in
// the backing store: the victim region's bytes are overwritten with a
// corruption pattern. Nothing is reported to the caller — that is the
// point of a silent integrity failure.
func (d *Disk) applyCorruptions(offsets []int64) {
	for _, off := range offsets {
		if off < 0 || off+4096 > d.Size() {
			continue
		}
		garbage := make([]byte, 4096)
		for i := range garbage {
			garbage[i] = byte(0xDE ^ (i * 7) ^ int(off>>12))
		}
		d.copyIn(garbage, off)
		d.stats.SilentCorruptions++
	}
}

// Flush implements Device. The disk's write cache drains with one short
// media access at the last written position; under attack this fails like
// any other write.
func (d *Disk) Flush() error {
	if d.closed {
		return ErrClosed
	}
	d.stats.FlushOps++
	res := d.drive.Access(hdd.OpWrite, 0, 512)
	d.stats.TotalWriteLatency += res.Latency
	if res.Err != nil {
		d.stats.FlushErrs++
		return &ioError{op: "flush", cause: res.Err}
	}
	return nil
}

func (d *Disk) checkRange(off, n int64) error {
	// off > Size()-n rather than off+n > Size(): the sum overflows for
	// offsets near math.MaxInt64, while Size()-n cannot once n ≥ 0.
	if off < 0 || n < 0 || off > d.Size()-n {
		return fmt.Errorf("blockdev: request of %d bytes at %d outside device of %d bytes", n, off, d.Size())
	}
	return nil
}

func (d *Disk) copyOut(p []byte, off int64) {
	for len(p) > 0 {
		in := off % pageSize
		n := min64(int64(len(p)), pageSize-in)
		if pg := d.page(off); pg != nil {
			copy(p[:n], pg[in:in+n])
		} else {
			zero(p[:n])
		}
		p = p[n:]
		off += n
	}
}

// page returns the page holding off, or nil where the store holds none.
func (d *Disk) page(off int64) *page {
	c := d.data[off-off%chunkSize]
	if c == nil {
		return nil
	}
	return c.pages[off%chunkSize/pageSize]
}

func (d *Disk) copyIn(p []byte, off int64) {
	for len(p) > 0 {
		n := min64(int64(len(p)), pageSize-off%pageSize)
		d.storePage(p[:n], off)
		p = p[n:]
		off += n
	}
}

// storePage writes span, which lies within one page, at off.
func (d *Disk) storePage(span []byte, off int64) {
	base := off - off%chunkSize
	i := int(off % chunkSize / pageSize)
	in := off % pageSize
	c := d.data[base]
	var pg *page
	if c != nil {
		pg = c.pages[i]
	}
	whole := len(span) == pageSize
	switch {
	case pg == nil:
		// An absent page reads as zeros, so a zero span stores nothing.
		// The test precedes the sharing match: the remembered page may
		// have been zeroed since, and sharing it would allocate a chunk
		// for zeros.
		if string(span) == string(zeroChunk[:len(span)]) {
			return
		}
		if c == nil {
			c = new(chunk)
			d.data[base] = c
		}
		if whole && d.last.c != nil {
			if lp := d.last.c.pages[d.last.i]; lp != nil && string(span) == string(lp[:]) {
				c.pages[i] = lp
				c.shared |= 1 << i
				d.last.c.shared |= 1 << d.last.i
				d.last = pageRef{c, i}
				return
			}
		}
		pg = new(page)
		c.pages[i] = pg
	case c.shared&(1<<i) != 0:
		// Copy on write; a whole-page write overwrites every byte.
		cp := new(page)
		if !whole {
			*cp = *pg
		}
		pg = cp
		c.pages[i] = pg
		c.shared &^= 1 << i
	}
	copy(pg[in:], span)
	if whole {
		d.last = pageRef{c, i}
	}
}

// replaceStore swaps in a new chunk index and forgets the remembered
// page, which belongs to the old one.
func (d *Disk) replaceStore(data map[int64]*chunk) {
	d.data = data
	d.last = pageRef{}
}

func zero(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

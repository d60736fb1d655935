package kvdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"deepnote/internal/jfs"
)

// WAL record op codes.
const (
	walOpPut    = 1
	walOpDelete = 2
)

// walRecord is the wire format: length-prefixed, CRC-protected.
//
//	u32 payloadLen | u32 crc | payload
//	payload: u64 seq | u8 op | u16 keyLen | key | u32 valLen | val
type walRecord struct {
	seq   uint64
	op    byte
	key   []byte
	value []byte
}

var errWALCorrupt = errors.New("kvdb: corrupt WAL record")

func decodeWALRecord(buf []byte) (rec walRecord, consumed int, err error) {
	le := binary.LittleEndian
	if len(buf) < 8 {
		return rec, 0, io.ErrUnexpectedEOF
	}
	plen := int(le.Uint32(buf[0:]))
	if plen == 0 {
		// Zero fill: end of log.
		return rec, 0, io.EOF
	}
	crc := le.Uint32(buf[4:])
	if len(buf) < 8+plen {
		return rec, 0, io.ErrUnexpectedEOF
	}
	payload := buf[8 : 8+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return rec, 0, errWALCorrupt
	}
	if plen < 15 {
		return rec, 0, errWALCorrupt
	}
	rec.seq = le.Uint64(payload[0:])
	rec.op = payload[8]
	klen := int(le.Uint16(payload[9:]))
	if 11+klen+4 > plen {
		return rec, 0, errWALCorrupt
	}
	rec.key = append([]byte(nil), payload[11:11+klen]...)
	vlen := int(le.Uint32(payload[11+klen:]))
	if 15+klen+vlen > plen {
		return rec, 0, errWALCorrupt
	}
	rec.value = append([]byte(nil), payload[15+klen:15+klen+vlen]...)
	return rec, 8 + plen, nil
}

// wal is the write-ahead log: records buffer in memory and flush to the
// backing file when the buffer fills (or on explicit flush). The flush is
// the synchronous, attack-exposed part of the write path.
type wal struct {
	file    *jfs.File
	buf     []byte
	filePos int64 // flushed bytes
	flushAt int   // buffer size that triggers a flush
}

func newWAL(f *jfs.File, flushAt int) *wal {
	return &wal{file: f, filePos: f.Size(), flushAt: flushAt}
}

// append encodes a record into the buffer and reports whether the buffer
// now needs a flush.
func (w *wal) append(rec walRecord) bool {
	le := binary.LittleEndian
	start := len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0) // length and CRC, set below
	w.buf = le.AppendUint64(w.buf, rec.seq)
	w.buf = append(w.buf, rec.op)
	w.buf = le.AppendUint16(w.buf, uint16(len(rec.key)))
	w.buf = append(w.buf, rec.key...)
	w.buf = le.AppendUint32(w.buf, uint32(len(rec.value)))
	w.buf = append(w.buf, rec.value...)
	payload := w.buf[start+8:]
	le.PutUint32(w.buf[start:], uint32(len(payload)))
	le.PutUint32(w.buf[start+4:], crc32.ChecksumIEEE(payload))
	return len(w.buf) >= w.flushAt
}

// flush writes the buffered records to the file. On error the buffer is
// retained so the flush can be retried.
func (w *wal) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	n, err := w.file.WriteAt(w.buf, w.filePos)
	if err != nil {
		// Keep the unwritten tail for retry; bytes reported written are
		// assumed durable in order.
		w.filePos += int64(n)
		w.buf = w.buf[n:]
		return fmt.Errorf("kvdb: wal flush: %w", err)
	}
	w.filePos += int64(n)
	w.buf = w.buf[:0]
	return nil
}

// sync flushes the buffer and forces a filesystem commit.
func (w *wal) sync() error {
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.file.Sync(); err != nil {
		return fmt.Errorf("kvdb: wal sync: %w", err)
	}
	return nil
}

// replayWAL reads all valid records from a WAL file, stopping cleanly at
// zero fill, EOF, or the first corrupt record (torn tail).
func replayWAL(f *jfs.File) ([]walRecord, error) {
	size := f.Size()
	if size == 0 {
		return nil, nil
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("kvdb: reading wal: %w", err)
	}
	var recs []walRecord
	pos := 0
	for pos < len(buf) {
		rec, n, err := decodeWALRecord(buf[pos:])
		if err != nil {
			break // torn or zero tail: recovery keeps the valid prefix
		}
		recs = append(recs, rec)
		pos += n
	}
	return recs, nil
}

package blockdev

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestImageRoundTrip(t *testing.T) {
	d, _ := newDisk(t)
	payloads := map[int64][]byte{
		0:       []byte("superblock-ish"),
		1 << 20: bytes.Repeat([]byte{0xAA}, 100000),
		5 << 24: []byte("far away extent"),
	}
	for off, p := range payloads {
		if _, err := d.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	// Sparse: far below full device size.
	if buf.Len() > 1<<22 {
		t.Fatalf("image size %d, want sparse", buf.Len())
	}
	d2, _ := newDisk(t)
	if err := d2.LoadImage(&buf); err != nil {
		t.Fatal(err)
	}
	for off, want := range payloads {
		got := make([]byte, len(want))
		if _, err := d2.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("content at %d diverged", off)
		}
	}
	// Unwritten regions stay zero.
	zero := make([]byte, 64)
	d2.ReadAt(zero, 1<<30)
	for _, b := range zero {
		if b != 0 {
			t.Fatal("ghost data in unwritten region")
		}
	}
}

// TestImageFile: a missing file loads nothing and is no error, a saved
// file loads back, and any other open error fails.
func TestImageFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "disk.img")
	d, _ := newDisk(t)
	want := []byte("kept across runs")
	if _, err := d.WriteAt(want, 1<<20); err != nil {
		t.Fatal(err)
	}
	if loaded, err := d.LoadImageFile(path); loaded || err != nil {
		t.Fatalf("missing file: loaded=%v err=%v, want false and nil", loaded, err)
	}
	if err := d.SaveImageFile(path); err != nil {
		t.Fatal(err)
	}
	d2, _ := newDisk(t)
	if loaded, err := d2.LoadImageFile(path); !loaded || err != nil {
		t.Fatalf("saved file: loaded=%v err=%v, want true and nil", loaded, err)
	}
	got := make([]byte, len(want))
	if _, err := d2.ReadAt(got, 1<<20); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("loaded %q (err %v), want %q", got, err, want)
	}
	if err := os.WriteFile(filepath.Join(dir, "file"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if loaded, err := d2.LoadImageFile(filepath.Join(dir, "file", "x.img")); loaded || err == nil {
		t.Fatalf("path through a file: loaded=%v err=%v, want an error", loaded, err)
	}
}

func TestImageEmptyDisk(t *testing.T) {
	d, _ := newDisk(t)
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	d2, _ := newDisk(t)
	if err := d2.LoadImage(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestImageRejectsGarbage(t *testing.T) {
	d, _ := newDisk(t)
	if err := d.LoadImage(bytes.NewReader([]byte("not an image"))); !errors.Is(err, ErrBadImage) {
		t.Fatalf("garbage accepted: %v", err)
	}
	// Truncated valid header.
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	d.WriteAt([]byte("x"), 0)
	var full bytes.Buffer
	if err := d.SaveImage(&full); err != nil {
		t.Fatal(err)
	}
	truncated := full.Bytes()[:full.Len()-10]
	if err := d.LoadImage(bytes.NewReader(truncated)); !errors.Is(err, ErrBadImage) {
		t.Fatalf("truncated image accepted: %v", err)
	}
}

func TestImageLoadReplacesContents(t *testing.T) {
	d, _ := newDisk(t)
	d.WriteAt([]byte("original"), 0)
	var buf bytes.Buffer
	d.SaveImage(&buf)
	d.WriteAt([]byte("MUTATED!"), 0)
	if err := d.LoadImage(&buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	d.ReadAt(got, 0)
	if string(got) != "original" {
		t.Fatalf("load did not restore: %q", got)
	}
}

// imageHeader builds a SaveImage header for d claiming count chunks.
func imageHeader(d *Disk, count uint32) []byte {
	le := binary.LittleEndian
	h := make([]byte, 8+4+8+4+4)
	le.PutUint64(h[0:], imageMagic)
	le.PutUint32(h[8:], imageVersion)
	le.PutUint64(h[12:], uint64(d.Size()))
	le.PutUint32(h[20:], chunkSize)
	le.PutUint32(h[24:], count)
	return h
}

func TestImageRejectsImpossibleChunkCount(t *testing.T) {
	d, _ := newDisk(t)
	for _, count := range []uint32{math.MaxUint32, uint32(d.Size()/chunkSize) + 2} {
		err := d.LoadImage(bytes.NewReader(imageHeader(d, count)))
		if !errors.Is(err, ErrBadImage) {
			t.Fatalf("count %d on a %d-byte disk: err = %v, want ErrBadImage", count, d.Size(), err)
		}
	}
}

// A header may claim as many chunks as the disk can hold and then stop.
// The loader must not reserve storage for chunks that never arrive.
func TestImageDoesNotTrustChunkCount(t *testing.T) {
	d, _ := newDisk(t)
	hdr := imageHeader(d, uint32(d.Size()/chunkSize))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := d.LoadImage(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadImage) {
		t.Fatalf("bodiless image: err = %v, want ErrBadImage", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("loading a bodiless %d-chunk header allocated %d bytes", d.Size()/chunkSize, got)
	}
}

func TestImageRejectsDuplicateChunk(t *testing.T) {
	d, _ := newDisk(t)
	img := imageHeader(d, 2)
	for i := 0; i < 2; i++ {
		img = binary.LittleEndian.AppendUint64(img, chunkSize)
		img = append(img, bytes.Repeat([]byte{byte(i + 1)}, chunkSize)...)
	}
	if err := d.LoadImage(bytes.NewReader(img)); !errors.Is(err, ErrBadImage) {
		t.Fatalf("duplicate chunk offset: err = %v, want ErrBadImage", err)
	}
}

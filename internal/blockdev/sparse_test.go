package blockdev

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// flatModel mirrors a window of a Disk as one flat byte slice, and tracks
// which chunks the store must hold: those some non-zero data reached.
type flatModel struct {
	base  int64 // window start on the disk, chunk-aligned
	bytes []byte
	dirty map[int64]bool // chunk bases a non-zero span reached
}

func newFlatModel(base int64, chunks int) *flatModel {
	return &flatModel{base: base, bytes: make([]byte, chunks*chunkSize), dirty: map[int64]bool{}}
}

// write mirrors a write of p at window offset off.
func (m *flatModel) write(p []byte, off int) {
	copy(m.bytes[off:], p)
	for c := off / chunkSize; c <= (off+len(p)-1)/chunkSize; c++ {
		lo, hi := max(off, c*chunkSize), min(off+len(p), (c+1)*chunkSize)
		if !bytes.Equal(p[lo-off:hi-off], zeroChunk[:hi-lo]) {
			m.dirty[m.base+int64(c)*chunkSize] = true
		}
	}
}

// squeeze mirrors applyCorruptions at window offset off and returns the
// garbage it writes.
func (m *flatModel) squeeze(off int) []byte {
	garbage := make([]byte, 4096)
	for i := range garbage {
		garbage[i] = byte(0xDE ^ (i * 7) ^ int((m.base+int64(off))>>12))
	}
	m.write(garbage, off)
	return garbage
}

// image returns the bytes SaveImage must produce for a disk of the given
// size holding exactly the model's window.
func (m *flatModel) image(size int64) []byte {
	le := binary.LittleEndian
	var out []byte
	out = le.AppendUint64(out, imageMagic)
	out = le.AppendUint32(out, imageVersion)
	out = le.AppendUint64(out, uint64(size))
	out = le.AppendUint32(out, chunkSize)
	out = le.AppendUint32(out, uint32(len(m.dirty)))
	bases := make([]int64, 0, len(m.dirty))
	for b := range m.dirty {
		bases = append(bases, b)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, b := range bases {
		out = le.AppendUint64(out, uint64(b))
		out = append(out, m.bytes[b-m.base:b-m.base+chunkSize]...)
	}
	return out
}

// check reads the whole window back and saves an image; both must match
// the model.
func (m *flatModel) check(t testing.TB, d *Disk, what string) {
	t.Helper()
	got := make([]byte, len(m.bytes))
	if _, err := d.ReadAt(got, m.base); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, m.bytes) {
		t.Fatalf("%s: contents diverge from the model", what)
	}
	var img bytes.Buffer
	if err := d.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(img.Bytes(), m.image(d.Size())) {
		t.Fatalf("%s: SaveImage differs from the image of the model (%d chunks stored, %d dirty)", what, len(d.data), len(m.dirty))
	}
}

// sharedPages returns the disk offsets of every page slot marked shared.
func sharedPages(d *Disk) []int64 {
	var out []int64
	for base, c := range d.data {
		for i := range c.pages {
			if c.shared&(1<<i) != 0 {
				out = append(out, base+int64(i)*pageSize)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestStoreMatchesFlatModel runs random writes and reads against a flat
// byte slice standing in for a window of the device. Writes mix zero and
// non-zero data, sub-chunk, whole-chunk and chunk-straddling extents, zero
// writes over chunks that already hold data, repeated whole-page writes of
// one pattern (which share pages), partial, whole-page and zero writes into
// shared pages, silent-corruption squeezes into shared pages, and, halfway,
// a save and reload of the disk's own image. Every read must match the
// model, and every saved image must equal the image built from the model,
// so the store holds exactly the chunks some non-zero data reached.
func TestStoreMatchesFlatModel(t *testing.T) {
	const (
		base   = 3 << 30 // window start, chunk-aligned
		chunks = 128
		span   = chunks * chunkSize
		pages  = span / pageSize
	)
	patterns := [2][]byte{make([]byte, pageSize), make([]byte, pageSize)}
	for i := range patterns[0] {
		patterns[0][i], patterns[1][i] = byte(i), byte(0x5A^i*3)
	}
	var intoShared [4]int // partial, whole, zero and squeeze writes into a shared page
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, _ := newDisk(t)
		m := newFlatModel(base, chunks)
		touched := map[int64]bool{} // chunks any write touched
		maxShared := 0
		// target picks a page-aligned window offset, a shared page's when
		// one exists and the coin says so.
		target := func() int {
			if sh := sharedPages(d); len(sh) > 0 && rng.Intn(4) != 0 {
				return int(sh[rng.Intn(len(sh))] - base)
			}
			return rng.Intn(pages) * pageSize
		}
		randomData := func(p []byte) {
			for i := range p {
				if rng.Intn(4) != 0 {
					p[i] = byte(1 + rng.Intn(255))
				}
			}
		}
		for op := 0; op < 400; op++ {
			if op == 200 {
				// Reload the disk's own image; later writes land on pages
				// the image supplied, and nothing is remembered across.
				m.check(t, d, fmt.Sprintf("seed %d before reload", seed))
				var img bytes.Buffer
				if err := d.SaveImage(&img); err != nil {
					t.Fatal(err)
				}
				if err := d.LoadImage(&img); err != nil {
					t.Fatal(err)
				}
				if d.last != (pageRef{}) {
					t.Fatalf("seed %d: LoadImage kept the remembered page", seed)
				}
				m.check(t, d, fmt.Sprintf("seed %d after reload", seed))
			}
			var off int
			var p []byte
			switch k := rng.Intn(8); k {
			case 0, 1, 2, 3:
				switch k {
				case 0: // whole chunk
					off, p = rng.Intn(chunks)*chunkSize, make([]byte, chunkSize)
				case 1: // straddles one or more chunk boundaries
					off = (1+rng.Intn(chunks-1))*chunkSize - 1 - rng.Intn(4096)
					p = make([]byte, 2+rng.Intn(2*chunkSize))
				default: // small extent anywhere
					off, p = rng.Intn(span), make([]byte, 1+rng.Intn(8192))
				}
				if rng.Intn(4) == 0 {
					randomData(p) // non-zero, though possibly with zero runs inside
				}
			case 4: // a run of one repeated page, shared into absent slots
				off = rng.Intn(pages) * pageSize
				p = bytes.Repeat(patterns[rng.Intn(4)/3], 1+rng.Intn(8))
			case 5: // whole page, often over a shared one
				off, p = target(), make([]byte, pageSize)
				if rng.Intn(2) == 0 {
					randomData(p)
				}
			case 6: // part of a page, often of a shared one
				at := rng.Intn(pageSize)
				off, p = target()+at, make([]byte, 1+rng.Intn(pageSize-at))
				if rng.Intn(3) != 0 {
					randomData(p)
				}
			case 7: // silent-corruption squeeze, often into a shared page
				off = target()
				if rng.Intn(4) == 0 {
					off = min(off+rng.Intn(pageSize), span-4096)
				}
				if slices.Contains(sharedPages(d), base+int64(off)) {
					intoShared[3]++
				}
				d.applyCorruptions([]int64{base + int64(off)})
				m.squeeze(off)
			}
			if p != nil {
				if len(p) > span-off {
					p = p[:span-off]
				}
				if slices.Contains(sharedPages(d), base+int64(off-off%pageSize)) {
					switch {
					case off%pageSize != 0 || len(p) < pageSize:
						intoShared[0]++
					case bytes.Equal(p[:pageSize], zeroChunk[:pageSize]):
						intoShared[2]++
					default:
						intoShared[1]++
					}
				}
				for c := off / chunkSize; c <= (off+len(p)-1)/chunkSize; c++ {
					touched[base+int64(c)*chunkSize] = true
				}
				if _, err := d.WriteAt(p, base+int64(off)); err != nil {
					t.Fatal(err)
				}
				m.write(p, off)
			}
			maxShared = max(maxShared, len(sharedPages(d)))

			roff, rn := rng.Intn(span), 1+rng.Intn(2*chunkSize)
			if roff+rn > span {
				rn = span - roff
			}
			got := make([]byte, rn)
			if _, err := d.ReadAt(got, base+int64(roff)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, m.bytes[roff:roff+rn]) {
				t.Fatalf("seed %d op %d: read %d@%d diverges from the model", seed, op, rn, roff)
			}
		}
		m.check(t, d, fmt.Sprintf("seed %d at the end", seed))
		zeroOnly := 0
		for c := range touched {
			if !m.dirty[c] {
				zeroOnly++
			}
		}
		if zeroOnly == 0 {
			t.Fatalf("seed %d: every written chunk saw non-zero data; no zero-only chunk was exercised", seed)
		}
		if maxShared < 8 {
			t.Fatalf("seed %d: at most %d pages were shared at once; sharing was barely exercised", seed, maxShared)
		}
	}
	for i, what := range []string{"partial", "whole-page", "zero", "squeeze"} {
		if intoShared[i] == 0 {
			t.Errorf("no %s write landed in a shared page", what)
		}
	}
	t.Logf("writes into shared pages (partial, whole, zero, squeeze): %v", intoShared)
}

func TestZeroWriteIntoAbsentChunkAllocatesNothing(t *testing.T) {
	d, _ := newDisk(t)
	p := make([]byte, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := d.WriteAt(p, 7*chunkSize+512); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("zero WriteAt into an absent chunk: %v allocs/op, want 0", allocs)
	}
	if len(d.data) != 0 {
		t.Fatalf("zero writes created %d chunks", len(d.data))
	}
	if s := d.Stats(); s.WriteOps != 101 || s.WriteBytes != 101*4096 {
		t.Fatalf("elided writes must still count: %+v", s)
	}
}

// TestOverwriteOfOwnedPageAllocatesNothing pins the in-place path: whole
// and partial writes into a page the slot owns allocate nothing.
func TestOverwriteOfOwnedPageAllocatesNothing(t *testing.T) {
	d, _ := newDisk(t)
	a, b := make([]byte, pageSize), make([]byte, pageSize)
	for i := range a {
		a[i], b[i] = byte(i), byte(i+1)
	}
	const off = 5*chunkSize + 3*pageSize
	if _, err := d.WriteAt(a, off); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		p := [2][]byte{a, b}[i%2]
		if i%3 == 2 {
			p = p[100:900]
		}
		i++
		if _, err := d.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("overwrite of an owned page: %v allocs/op, want 0", allocs)
	}
}

// TestRepeatedPageIntoAbsentChunkAllocatesChunkHeader pins the sharing
// path: a whole-page write into an absent chunk that repeats the last
// whole page stored allocates the chunk header and nothing else.
func TestRepeatedPageIntoAbsentChunkAllocatesChunkHeader(t *testing.T) {
	d, _ := newDisk(t)
	p := make([]byte, pageSize)
	for i := range p {
		p[i] = byte(i)
	}
	if _, err := d.WriteAt(p, 0); err != nil {
		t.Fatal(err)
	}
	first := d.data[0].pages[0]
	const off = 7 * chunkSize
	allocs := testing.AllocsPerRun(100, func() {
		// Deleting the target chunk keeps it absent without growing the
		// map: the insert reuses the deleted entry.
		delete(d.data, off)
		if _, err := d.WriteAt(p, off); err != nil {
			t.Fatal(err)
		}
	})
	const want = 1 // the chunk header
	if allocs != want {
		t.Fatalf("repeated page into an absent chunk: %v allocs/op, want %d", allocs, want)
	}
	if c := d.data[off]; c.pages[0] != first || c.shared != 1 || d.data[0].shared != 1 {
		t.Fatalf("the repeated page was not shared: %p vs %p, shared bits %b and %b", c.pages[0], first, c.shared, d.data[0].shared)
	}
}

// FuzzStore interprets the fuzz input as a stream of writes, squeezes and
// image round trips over a four-chunk window, mirrored against a flat
// model the way FuzzDBOps mirrors kvdb against a map. Writes fill with one
// byte, so repeated whole pages, and therefore shared pages, are common.
// Every op is followed by a read of the page it touched, and the end by a
// full read and an image comparison.
func FuzzStore(f *testing.F) {
	f.Add([]byte{1, 0, 0, 7, 1, 1, 0, 7, 1, 2, 0, 7, 0, 1, 9, 3, 2, 2, 0, 0})
	f.Add([]byte{1, 3, 0, 9, 1, 20, 0, 9, 3, 20, 0, 0, 4, 0, 0, 0, 1, 21, 0, 9, 2, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			base   = 1 << 30
			chunks = 4
			pages  = chunks * chunkSize / pageSize
		)
		d, _ := newDisk(t)
		m := newFlatModel(base, chunks)
		for len(data) >= 4 {
			kind, pg, at, v := data[0]%5, int(data[1])%pages, int(data[2])*16, data[3]
			data = data[4:]
			off := pg * pageSize
			switch kind {
			case 0, 1: // a partial span of one byte, possibly across pages
				if kind == 1 {
					at = 0 // a whole page
				}
				n := pageSize - at
				if kind == 0 {
					n = min(1+int(v)*37, len(m.bytes)-off-at)
				}
				p := bytes.Repeat([]byte{v}, n)
				if _, err := d.WriteAt(p, base+int64(off+at)); err != nil {
					t.Fatal(err)
				}
				m.write(p, off+at)
			case 2: // zero page
				p := make([]byte, pageSize)
				if _, err := d.WriteAt(p, base+int64(off)); err != nil {
					t.Fatal(err)
				}
				m.write(p, off)
			case 3: // silent-corruption squeeze
				off = min(off+at, len(m.bytes)-4096)
				d.applyCorruptions([]int64{base + int64(off)})
				m.squeeze(off)
			case 4: // save and reload the disk's own image
				var img bytes.Buffer
				if err := d.SaveImage(&img); err != nil {
					t.Fatal(err)
				}
				if err := d.LoadImage(&img); err != nil {
					t.Fatal(err)
				}
			}
			got := make([]byte, pageSize)
			if _, err := d.ReadAt(got, base+int64(off-off%pageSize)); err != nil {
				t.Fatal(err)
			}
			if want := m.bytes[off-off%pageSize:][:pageSize]; !bytes.Equal(got, want) {
				t.Fatalf("op %d at %d: page diverges from the model", kind, off)
			}
		}
		m.check(t, d, "end of stream")
	})
}

func BenchmarkDiskWriteAt(b *testing.B) {
	pattern, other := make([]byte, pageSize), make([]byte, pageSize)
	for i := range pattern {
		pattern[i], other[i] = byte(i), byte(i+1)
	}
	// Each case writes 4 KiB at the start of one of 256 chunks in turn, so
	// seek costs match across cases. The into-absent cases empty the store
	// whenever the cycle restarts, keeping every target chunk absent and
	// the live store under 16 MiB. pattern-into-absent repeats one page,
	// which the store shares; distinct-into-absent alternates two, so each
	// write differs from the last page stored and allocates its own page.
	const cycle = 256
	for _, bc := range []struct {
		name   string
		p      [2][]byte // written on even and odd iterations
		absent bool
	}{
		{"zero-into-absent", [2][]byte{make([]byte, pageSize), make([]byte, pageSize)}, true},
		{"pattern-into-absent", [2][]byte{pattern, pattern}, true},
		{"distinct-into-absent", [2][]byte{pattern, other}, true},
		{"overwrite", [2][]byte{pattern, pattern}, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d, _ := newDisk(b)
			if !bc.absent {
				// Alternate two pages so none is shared and every timed
				// write lands in a page its slot owns.
				for c := int64(0); c < cycle; c++ {
					d.WriteAt([2][]byte{pattern, other}[c%2], c*chunkSize)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := int64(i % cycle)
				if c == 0 && bc.absent && len(d.data) > 0 {
					b.StopTimer()
					d.replaceStore(make(map[int64]*chunk))
					b.StartTimer()
				}
				if _, err := d.WriteAt(bc.p[i%2], c*chunkSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDiskReadAt times a 4 KiB read at the start of one of 256
// chunks in turn, as BenchmarkDiskWriteAt writes, so seek costs match:
// stored reads a page that a write filled, absent one that the store has
// never held and serves as zeros. Neither allocates.
func BenchmarkDiskReadAt(b *testing.B) {
	const cycle = 256
	for _, bc := range []struct {
		name   string
		stored bool
	}{
		{"stored", true},
		{"absent", false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d, _ := newDisk(b)
			if bc.stored {
				pg := make([]byte, pageSize)
				for c := int64(0); c < cycle; c++ {
					pg[0] = byte(c + 1) // distinct pages, none shared
					if _, err := d.WriteAt(pg, c*chunkSize); err != nil {
						b.Fatal(err)
					}
				}
			}
			p := make([]byte, pageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.ReadAt(p, int64(i%cycle)*chunkSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

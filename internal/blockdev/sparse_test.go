package blockdev

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestStoreMatchesFlatModel runs random writes and reads against a flat
// byte slice standing in for a window of the device. Writes mix zero and
// non-zero data, sub-chunk, whole-chunk and chunk-straddling extents, and
// zero writes over chunks that already hold data. Every read must match
// the model, and the store must hold only chunks some non-zero write
// created.
func TestStoreMatchesFlatModel(t *testing.T) {
	const (
		base   = 3 << 30 // window start, chunk-aligned
		chunks = 64
		span   = chunks * chunkSize
	)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, _ := newDisk(t)
		model := make([]byte, span)
		dirty := map[int64]bool{}   // chunks a non-zero write touched
		touched := map[int64]bool{} // chunks any write touched
		for op := 0; op < 400; op++ {
			var off, n int
			switch rng.Intn(4) {
			case 0: // whole chunk
				off, n = rng.Intn(chunks)*chunkSize, chunkSize
			case 1: // straddles one or more chunk boundaries
				off = (1+rng.Intn(chunks-1))*chunkSize - 1 - rng.Intn(4096)
				n = 2 + rng.Intn(2*chunkSize)
			default: // small extent anywhere
				off, n = rng.Intn(span), 1+rng.Intn(8192)
			}
			if off+n > span {
				n = span - off
			}
			for c := off / chunkSize; c <= (off+n-1)/chunkSize; c++ {
				touched[base+int64(c)*chunkSize] = true
			}
			p := make([]byte, n)
			if rng.Intn(4) == 0 {
				// Non-zero, though possibly with zero runs inside.
				for i := range p {
					if rng.Intn(4) != 0 {
						p[i] = byte(1 + rng.Intn(255))
					}
				}
				for c := off / chunkSize; c <= (off+n-1)/chunkSize; c++ {
					lo, hi := max(off, c*chunkSize), min(off+n, (c+1)*chunkSize)
					if !bytes.Equal(p[lo-off:hi-off], make([]byte, hi-lo)) {
						dirty[base+int64(c)*chunkSize] = true
					}
				}
			}
			if _, err := d.WriteAt(p, base+int64(off)); err != nil {
				t.Fatal(err)
			}
			copy(model[off:], p)

			roff, rn := rng.Intn(span), 1+rng.Intn(2*chunkSize)
			if roff+rn > span {
				rn = span - roff
			}
			got := make([]byte, rn)
			if _, err := d.ReadAt(got, base+int64(roff)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, model[roff:roff+rn]) {
				t.Fatalf("seed %d op %d: read %d@%d diverges from the model", seed, op, rn, roff)
			}
		}
		whole := make([]byte, span)
		if _, err := d.ReadAt(whole, base); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole, model) {
			t.Fatalf("seed %d: final contents diverge from the model", seed)
		}
		for b := range d.data {
			if !dirty[b] {
				t.Fatalf("seed %d: chunk at %d exists though only zero writes reached it", seed, b)
			}
		}
		if len(touched) == len(dirty) {
			t.Fatalf("seed %d: every written chunk saw non-zero data; no zero-only chunk was exercised", seed)
		}

		// The disk round-trips through an image: same chunks, same bytes.
		var img bytes.Buffer
		if err := d.SaveImage(&img); err != nil {
			t.Fatal(err)
		}
		d2, _ := newDisk(t)
		if err := d2.LoadImage(&img); err != nil {
			t.Fatal(err)
		}
		if len(d2.data) != len(d.data) {
			t.Fatalf("seed %d: image holds %d chunks, disk %d", seed, len(d2.data), len(d.data))
		}
		if _, err := d2.ReadAt(whole, base); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole, model) {
			t.Fatalf("seed %d: loaded image diverges from the model", seed)
		}
	}
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

func BenchmarkDiskWriteAt(b *testing.B) {
	pattern := make([]byte, 4096)
	for i := range pattern {
		pattern[i] = byte(i)
	}
	// Each case writes 4 KiB at the start of one of 256 chunks in turn, so
	// seek costs match across cases. pattern-into-absent empties the store
	// whenever the cycle restarts, keeping every target chunk absent and
	// the live store under 16 MiB.
	const cycle = 256
	for _, bc := range []struct {
		name   string
		p      []byte
		absent bool
	}{
		{"zero-into-absent", make([]byte, 4096), true},
		{"pattern-into-absent", pattern, true},
		{"overwrite", pattern, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			d, _ := newDisk(b)
			if !bc.absent {
				for c := int64(0); c < cycle; c++ {
					d.WriteAt(pattern, c*chunkSize)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := int64(i % cycle)
				if c == 0 && bc.absent && len(d.data) > 0 {
					b.StopTimer()
					d.data = make(map[int64][]byte)
					b.StartTimer()
				}
				if _, err := d.WriteAt(bc.p, c*chunkSize); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

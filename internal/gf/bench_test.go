package gf_test

import (
	"math/rand"
	"testing"

	"deepnote/internal/cluster"
)

// BenchmarkCoder measures the GF(256) Reed–Solomon work the cluster store
// does per object: encoding a 16 KiB object into a 4+2 stripe, and
// rebuilding two lost shards (one data, one parity) from the four left.
// SetBytes is the object size, so MB/s reads as object throughput.
func BenchmarkCoder(b *testing.B) {
	coder, err := cluster.NewCoder(4, 2)
	if err != nil {
		b.Fatal(err)
	}
	object := make([]byte, 16<<10)
	rand.New(rand.NewSource(1)).Read(object)
	shards := coder.Encode(object)

	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(object)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			coder.Encode(object)
		}
	})
	b.Run("reconstruct", func(b *testing.B) {
		work := make([][]byte, len(shards))
		b.SetBytes(int64(len(object)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(work, shards)
			work[0], work[5] = nil, nil
			if err := coder.Reconstruct(work); err != nil {
				b.Fatal(err)
			}
		}
	})
}

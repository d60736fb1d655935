// Package cluster simulates a full underwater datacenter: containers and
// attacker speakers placed in 3-D space, every speaker→drive pair routed
// through the water/acoustics/enclosure chain, and a sharded
// erasure-coded object store layered over per-drive blockdev/netstore
// stacks that serves open-loop client traffic on the virtual clock. It is
// the facility-scale victim the paper's introduction frames: an adversary
// does not silence one Barracuda in a tank, they try to silence a
// redundant cluster.
package cluster

import (
	"errors"
	"fmt"

	"deepnote/internal/gf"
)

// Erasure coding errors.
var (
	// ErrShardCount reports an invalid k/m split.
	ErrShardCount = errors.New("cluster: invalid shard counts")
	// ErrTooFewShards means fewer than k shards survive, so the stripe is
	// unrecoverable.
	ErrTooFewShards = errors.New("cluster: too few shards to reconstruct")
	// ErrShardSize reports inconsistent shard sizes.
	ErrShardSize = errors.New("cluster: inconsistent shard sizes")
)

// Coder is a systematic k-of-n Reed–Solomon coder built from a Cauchy
// matrix over GF(256). The encoding matrix is [I_k ; C] with
// C[i][j] = 1/(x_i ⊕ y_j) for distinct x_i = k+i and y_j = j; every
// square submatrix of a Cauchy matrix is nonsingular, so any k of the n
// shards reconstruct the stripe (the MDS property).
type Coder struct {
	data, parity int
	// cauchy is the m×k parity block of the encoding matrix.
	cauchy [][]byte
}

// NewCoder builds a coder with k data and m parity shards.
func NewCoder(dataShards, parityShards int) (*Coder, error) {
	k, m := dataShards, parityShards
	if k < 1 || m < 1 || k+m > 256 {
		return nil, fmt.Errorf("%w: data=%d parity=%d", ErrShardCount, k, m)
	}
	c := &Coder{data: k, parity: m, cauchy: make([][]byte, m)}
	for i := 0; i < m; i++ {
		c.cauchy[i] = make([]byte, k)
		for j := 0; j < k; j++ {
			c.cauchy[i][j] = gf.Inv(byte(k+i) ^ byte(j))
		}
	}
	return c, nil
}

// DataShards returns k.
func (c *Coder) DataShards() int { return c.data }

// TotalShards returns n = k+m.
func (c *Coder) TotalShards() int { return c.data + c.parity }

// ShardSize returns the per-shard size for an object of the given size:
// ceil(objectSize/k), so the stripe covers the object with zero padding
// in the last data shard.
func (c *Coder) ShardSize(objectSize int) int {
	return (objectSize + c.data - 1) / c.data
}

// encodingRow returns row r (0 ≤ r < n) of the [I_k ; C] matrix.
func (c *Coder) encodingRow(r int) []byte {
	row := make([]byte, c.data)
	if r < c.data {
		row[r] = 1
		return row
	}
	copy(row, c.cauchy[r-c.data])
	return row
}

// Encode splits data into k data shards (zero-padded) and computes m
// parity shards. The returned slice has n entries of equal length.
func (c *Coder) Encode(data []byte) [][]byte {
	size := c.ShardSize(len(data))
	if size == 0 {
		size = 1
	}
	shards := make([][]byte, c.TotalShards())
	for j := 0; j < c.data; j++ {
		shards[j] = make([]byte, size)
		lo := j * size
		if lo < len(data) {
			copy(shards[j], data[lo:])
		}
	}
	for i := 0; i < c.parity; i++ {
		p := make([]byte, size)
		for j := 0; j < c.data; j++ {
			coef := c.cauchy[i][j]
			if coef == 0 {
				continue
			}
			sj := shards[j]
			for b := range p {
				p[b] ^= gf.Mul(coef, sj[b])
			}
		}
		shards[c.data+i] = p
	}
	return shards
}

// Reconstruct fills in missing (nil) shards in place from any k present
// ones. shards must have n entries; present entries must share one size.
func (c *Coder) Reconstruct(shards [][]byte) error {
	n := c.TotalShards()
	if len(shards) != n {
		return fmt.Errorf("%w: got %d shards, want %d", ErrShardCount, len(shards), n)
	}
	size := -1
	var have []int
	for idx, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("%w: shard %d is %d bytes, want %d", ErrShardSize, idx, len(s), size)
		}
		if len(have) < c.data {
			have = append(have, idx)
		}
	}
	if len(have) < c.data {
		return fmt.Errorf("%w: %d of %d present, need %d", ErrTooFewShards, len(have), n, c.data)
	}
	// Fast path: all data shards survive; only parity needs recomputing.
	dataIntact := true
	for j := 0; j < c.data; j++ {
		if shards[j] == nil {
			dataIntact = false
			break
		}
	}
	if !dataIntact {
		// Solve M·d = s for the data shards d, where row r of M is the
		// encoding row of the r-th surviving shard.
		m := make([][]byte, c.data)
		for r, idx := range have {
			m[r] = c.encodingRow(idx)
		}
		inv, err := invertMatrix(m)
		if err != nil {
			return err
		}
		recovered := make([][]byte, c.data)
		for j := 0; j < c.data; j++ {
			if shards[j] != nil {
				continue
			}
			d := make([]byte, size)
			for r, idx := range have {
				coef := inv[j][r]
				if coef == 0 {
					continue
				}
				src := shards[idx]
				for b := range d {
					d[b] ^= gf.Mul(coef, src[b])
				}
			}
			recovered[j] = d
		}
		for j, d := range recovered {
			if d != nil {
				shards[j] = d
			}
		}
	}
	// Re-derive any missing parity from the (now complete) data shards.
	for i := 0; i < c.parity; i++ {
		if shards[c.data+i] != nil {
			continue
		}
		p := make([]byte, size)
		for j := 0; j < c.data; j++ {
			coef := c.cauchy[i][j]
			if coef == 0 {
				continue
			}
			sj := shards[j]
			for b := range p {
				p[b] ^= gf.Mul(coef, sj[b])
			}
		}
		shards[c.data+i] = p
	}
	return nil
}

// Join concatenates the k data shards and trims to size bytes. All data
// shards must be present (call Reconstruct first if not).
func (c *Coder) Join(shards [][]byte, size int) ([]byte, error) {
	if len(shards) < c.data {
		return nil, fmt.Errorf("%w: got %d shards, want at least %d", ErrShardCount, len(shards), c.data)
	}
	out := make([]byte, 0, size)
	for j := 0; j < c.data && len(out) < size; j++ {
		if shards[j] == nil {
			return nil, fmt.Errorf("%w: data shard %d missing", ErrTooFewShards, j)
		}
		out = append(out, shards[j]...)
	}
	if len(out) < size {
		return nil, fmt.Errorf("%w: %d bytes from data shards, want %d", ErrShardSize, len(out), size)
	}
	return out[:size], nil
}

// invertMatrix Gauss–Jordan inverts a square matrix over GF(256). The
// input is consumed.
func invertMatrix(m [][]byte) ([][]byte, error) {
	n := len(m)
	inv := make([][]byte, n)
	for i := range inv {
		inv[i] = make([]byte, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if m[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("cluster: singular decode matrix at column %d", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		if d := m[col][col]; d != 1 {
			di := gf.Inv(d)
			for j := 0; j < n; j++ {
				m[col][j] = gf.Mul(m[col][j], di)
				inv[col][j] = gf.Mul(inv[col][j], di)
			}
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for j := 0; j < n; j++ {
				m[r][j] ^= gf.Mul(f, m[col][j])
				inv[r][j] ^= gf.Mul(f, inv[col][j])
			}
		}
	}
	return inv, nil
}

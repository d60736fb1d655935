package kvdb

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"deepnote/internal/simclock"
	"deepnote/internal/valid"
)

// Workload names, matching db_bench's vocabulary.
const (
	WorkloadFillSeq          = "fillseq"
	WorkloadFillRandom       = "fillrandom"
	WorkloadReadRandom       = "readrandom"
	WorkloadReadWhileWriting = "readwhilewriting"
)

// BenchSpec describes a db_bench-style run. Every field is used as given:
// Run rejects a ValueSize below 1 and a negative Num, and a Seed of 0 is a
// seed like any other.
type BenchSpec struct {
	// Workload is one of the Workload* names.
	Workload string
	// Num is the operation count for fill/read workloads.
	Num int
	// Runtime bounds time-bounded workloads (readwhilewriting).
	Runtime time.Duration
	// ValueSize is the value payload size in bytes (db_bench's default
	// is 100); keys are benchKeySize bytes.
	ValueSize int
	// Seed drives key selection.
	Seed int64
}

const (
	// benchKeySize is db_bench's default key size in bytes.
	benchKeySize = 16
	// readsPerWrite is the read:write mix of readwhilewriting: the
	// benchmark models db_bench's reader threads against one writer as
	// a closed loop.
	readsPerWrite = 10
)

// BenchResult reports a run the way the paper's Table 2 does: payload
// throughput in MB/s and operation rate in ops/s.
type BenchResult struct {
	Spec    BenchSpec
	Ops     int
	Errors  int
	Bytes   int64
	Elapsed time.Duration
	// Crashed is set when the run ended in a database crash.
	Crashed bool
	// CrashErr holds the crash error when Crashed.
	CrashErr error
}

// ThroughputMBps returns payload MB/s (decimal).
func (r BenchResult) ThroughputMBps() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / s
}

// OpsPerSec returns completed operations per second.
func (r BenchResult) OpsPerSec() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Ops) / s
}

// Bench runs a workload against the database on its virtual clock.
type Bench struct {
	db    *DB
	clock *simclock.Virtual
}

// NewBench binds a benchmark to a database.
func NewBench(db *DB, clock *simclock.Virtual) *Bench {
	return &Bench{db: db, clock: clock}
}

// benchKey formats i zero-padded to benchKeySize digits; a longer number
// keeps its leading benchKeySize digits.
func benchKey(i int) []byte {
	key := []byte("0000000000000000")
	var buf [20]byte
	d := strconv.AppendInt(buf[:0], int64(i), 10)
	if len(d) > benchKeySize {
		d = d[:benchKeySize]
	}
	copy(key[benchKeySize-len(d):], d)
	return key
}

func benchValue(rng *rand.Rand, size int) []byte {
	v := make([]byte, size)
	for i := range v {
		v[i] = byte('a' + rng.Intn(26))
	}
	return v
}

// Run executes the spec.
func (b *Bench) Run(spec BenchSpec) (BenchResult, error) {
	if err := valid.First("kvdb: BenchSpec",
		valid.AtLeast("ValueSize", spec.ValueSize, 1),
		valid.AtLeast("Num", spec.Num, 0),
	); err != nil {
		return BenchResult{}, err
	}
	switch spec.Workload {
	case WorkloadFillSeq, WorkloadFillRandom:
		return b.fill(spec)
	case WorkloadReadRandom:
		return b.readRandom(spec)
	case WorkloadReadWhileWriting:
		return b.readWhileWriting(spec)
	default:
		return BenchResult{}, fmt.Errorf("kvdb: unknown workload %q", spec.Workload)
	}
}

func (b *Bench) fill(spec BenchSpec) (BenchResult, error) {
	if spec.Num <= 0 {
		return BenchResult{}, errors.New("kvdb: fill workloads need Num")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	res := BenchResult{Spec: spec}
	start := b.clock.Now()
	for i := 0; i < spec.Num; i++ {
		idx := i
		if spec.Workload == WorkloadFillRandom {
			idx = rng.Intn(spec.Num)
		}
		err := b.db.Put(benchKey(idx), benchValue(rng, spec.ValueSize))
		if err != nil {
			res.Errors++
			if crashed, cerr := b.db.Crashed(); crashed {
				res.Crashed, res.CrashErr = true, cerr
				break
			}
			continue
		}
		res.Ops++
		res.Bytes += int64(benchKeySize + spec.ValueSize)
	}
	res.Elapsed = b.clock.Now().Sub(start)
	return res, nil
}

func (b *Bench) readRandom(spec BenchSpec) (BenchResult, error) {
	if spec.Num <= 0 {
		return BenchResult{}, errors.New("kvdb: readrandom needs Num")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	res := BenchResult{Spec: spec}
	start := b.clock.Now()
	for i := 0; i < spec.Num; i++ {
		v, err := b.db.Get(benchKey(rng.Intn(spec.Num)))
		if err != nil && !errors.Is(err, ErrNotFound) {
			res.Errors++
			if crashed, cerr := b.db.Crashed(); crashed {
				res.Crashed, res.CrashErr = true, cerr
				break
			}
			continue
		}
		res.Ops++
		res.Bytes += int64(len(v))
	}
	res.Elapsed = b.clock.Now().Sub(start)
	return res, nil
}

// readWhileWriting models db_bench's readwhilewriting: one writer plus
// reader threads, reported as aggregate throughput. The loop is closed —
// when the write path stalls (WAL retries, L0 stop, crash), the whole
// benchmark's measured rate collapses, which is exactly the behaviour the
// paper's Table 2 observes on the physical testbed.
func (b *Bench) readWhileWriting(spec BenchSpec) (BenchResult, error) {
	if spec.Runtime <= 0 {
		return BenchResult{}, errors.New("kvdb: readwhilewriting needs Runtime")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	res := BenchResult{Spec: spec}
	written := int(b.db.Seq()) // keys already present from a fill phase
	if written == 0 {
		written = 1
	}
	start := b.clock.Now()
	// Bound blocked writes to the measurement window: a real benchmark
	// ends on wall-clock time even when the store is hung, but the
	// store's own crash clock keeps running across iterations.
	deadline := start.Add(spec.Runtime)
	prevHook := b.db.opts.RetryHook
	b.db.SetRetryHook(func(stalled time.Duration) bool {
		if prevHook != nil && !prevHook(stalled) {
			return false
		}
		return b.clock.Now().Before(deadline)
	})
	defer b.db.SetRetryHook(prevHook)
	for b.clock.Now().Sub(start) < spec.Runtime {
		err := b.db.Put(benchKey(written), benchValue(rng, spec.ValueSize))
		if err != nil {
			res.Errors++
			if crashed, cerr := b.db.Crashed(); crashed {
				res.Crashed, res.CrashErr = true, cerr
				break
			}
		} else {
			written++
			res.Ops++
			res.Bytes += int64(benchKeySize + spec.ValueSize)
		}
		for r := 0; r < readsPerWrite; r++ {
			v, err := b.db.Get(benchKey(rng.Intn(written)))
			if err != nil && !errors.Is(err, ErrNotFound) {
				res.Errors++
				if crashed, cerr := b.db.Crashed(); crashed {
					res.Crashed, res.CrashErr = true, cerr
					break
				}
				continue
			}
			res.Ops++
			res.Bytes += int64(len(v))
		}
		if res.Crashed {
			break
		}
	}
	elapsed := b.clock.Now().Sub(start)
	if elapsed < spec.Runtime {
		// A crashed run is reported against the intended window, like a
		// wall-clock benchmark that stopped producing output.
		elapsed = spec.Runtime
	}
	res.Elapsed = elapsed
	return res, nil
}

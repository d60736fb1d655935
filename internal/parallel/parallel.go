// Package parallel is the experiment fan-out engine: a bounded worker pool
// that runs independent simulation tasks (sweep points, fleet containers,
// ablation variants, duty-cycle grid cells) across CPUs while preserving
// the exact results of the serial path. Three properties make it safe to
// drop into any experiment grid:
//
//   - Order preservation: results come back indexed by task, never by
//     completion order, so reports and tables are byte-identical to a
//     serial run.
//   - Deterministic seeding: SeedFor derives a per-task seed from a base
//     seed and the task index with a splitmix64 mix, so stochastic tasks
//     reproduce bit-for-bit regardless of worker count or scheduling.
//   - First-error cancellation: the first task error cancels the shared
//     context, remaining tasks are abandoned, and that error is returned.
//
// Each task must build its own testbed/drive/clock instances; the engine
// shares nothing between tasks beyond the read-only inputs the caller
// closes over. That is the ownership rule (DESIGN.md §5): a simulation
// stack (simclock.Virtual, hdd.Drive, blockdev.Disk, netstore.Server) has
// one owner and takes no locks, so the only values a second goroutine can
// reach are a metrics.Registry and this package's own pool state, and
// only those two packages import sync or sync/atomic
// (TestOnlySyncOwnersImportSync).
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"deepnote/internal/metrics"
)

// DefaultWorkers resolves a worker-count request: values ≤ 0 mean "one
// worker per available CPU" (runtime.GOMAXPROCS(0)).
func DefaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SeedFor derives a deterministic per-task seed from a base seed and a
// task index using the splitmix64 finalizer. The derivation depends only
// on (base, index) — never on worker count or scheduling — so a parallel
// grid reproduces bit-for-bit at any parallelism. The result is never
// zero, because the simulation's option structs treat a zero seed as
// "substitute the default".
func SeedFor(base int64, index int) int64 {
	z := uint64(base) + (uint64(index)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return int64(z)
}

// Run fans tasks out over a pool of workers and returns one result per
// task, in task order. workers ≤ 0 selects DefaultWorkers. fn receives the
// pool context, the task index, and the task; if any call returns an
// error, the context is cancelled, in-flight tasks finish or bail on their
// own, queued tasks never start, and Run returns the first error observed
// (by completion time). A cancelled parent context aborts the pool the
// same way.
func Run[T, R any](ctx context.Context, tasks []T, workers int, fn func(ctx context.Context, index int, task T) (R, error)) ([]R, error) {
	if len(tasks) == 0 {
		return nil, ctx.Err()
	}
	workers = DefaultWorkers(workers)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]R, len(tasks))
	// The pool state below is what every worker shares, so it is atomic
	// or locked; results[i] is written by task i's worker alone and read
	// after wg.Wait.
	var (
		next     atomic.Int64
		failOnce sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				r, err := fn(ctx, i, tasks[i])
				if err != nil {
					fail(err)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results, nil
}

// RunObserved is Run with engine-level observability: it publishes
// "parallel.runs", "parallel.tasks", and (on error) "parallel.cancellations"
// counters into the registry. The published values depend only on the task
// list and the outcome — never on scheduling or worker count — so
// instrumented grids stay bit-identical at any parallelism. A nil registry
// makes it exactly Run.
func RunObserved[T, R any](ctx context.Context, tasks []T, workers int, reg *metrics.Registry, fn func(ctx context.Context, index int, task T) (R, error)) ([]R, error) {
	out, err := Run(ctx, tasks, workers, fn)
	if reg != nil && len(tasks) > 0 {
		reg.Add("parallel.runs", 1)
		reg.Add("parallel.tasks", int64(len(tasks)))
		if err != nil {
			reg.Add("parallel.cancellations", 1)
		}
	}
	return out, err
}

// Indices returns [0, n) as a task slice, for grids that are naturally
// indexed rather than backed by a materialized slice.
func Indices(n int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

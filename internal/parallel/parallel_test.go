package parallel

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPreservesOrder(t *testing.T) {
	tasks := Indices(100)
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := Run(context.Background(), tasks, workers, func(_ context.Context, i, task int) (int, error) {
			return task * task, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunIdenticalAcrossWorkerCounts(t *testing.T) {
	// A stochastic task seeded via SeedFor must reproduce bit-for-bit at
	// any parallelism: the engine's central guarantee.
	const base = 42
	task := func(_ context.Context, i, _ int) (float64, error) {
		rng := rand.New(rand.NewSource(SeedFor(base, i)))
		sum := 0.0
		for k := 0; k < 100; k++ {
			sum += rng.Float64()
		}
		return sum, nil
	}
	ref, err := Run(context.Background(), Indices(64), 1, task)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 64} {
		got, err := Run(context.Background(), Indices(64), workers, task)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: results diverge from serial run", workers)
		}
	}
}

func TestRunPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(context.Background(), Indices(50), 4, func(_ context.Context, i, _ int) (int, error) {
		if i == 7 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestRunErrorCancelsRemainingTasks(t *testing.T) {
	var started atomic.Int64
	_, err := Run(context.Background(), Indices(10_000), 2, func(ctx context.Context, i, _ int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("first task fails")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n >= 10_000 {
		t.Fatalf("all %d tasks ran despite early failure", n)
	}
}

func TestRunRespectsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Indices(100), 4, func(ctx context.Context, i, _ int) (int, error) {
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunEmptyTasks(t *testing.T) {
	got, err := Run(context.Background(), nil, 4, func(_ context.Context, i, task int) (int, error) {
		return task, nil
	})
	if err != nil || got != nil {
		t.Fatalf("empty run = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestRunActuallyRunsConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-CPU environment")
	}
	// Two tasks that each need the other to start before finishing can
	// only complete when the pool runs them simultaneously.
	gate := make(chan struct{}, 2)
	_, err := Run(context.Background(), Indices(2), 2, func(ctx context.Context, i, _ int) (int, error) {
		gate <- struct{}{}
		for len(gate) < 2 {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(time.Millisecond):
			}
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(3); got != 3 {
		t.Fatalf("DefaultWorkers(3) = %d", got)
	}
	if got := DefaultWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := DefaultWorkers(-5); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers(-5) = %d", got)
	}
}

func TestSeedForProperties(t *testing.T) {
	seen := make(map[int64]int)
	for _, base := range []int64{0, 1, 42, -17, 1 << 40} {
		for i := 0; i < 1000; i++ {
			s := SeedFor(base, i)
			if s == 0 {
				t.Fatalf("SeedFor(%d, %d) = 0; zero seeds mean 'use default' downstream", base, i)
			}
			if s != SeedFor(base, i) {
				t.Fatalf("SeedFor(%d, %d) not deterministic", base, i)
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: SeedFor(%d, %d) == earlier seed %d", base, i, prev)
			}
			seen[s] = i
		}
	}
}

func TestSeedForMatchesKnownVector(t *testing.T) {
	// Pin the derivation so a refactor can't silently change every
	// experiment's random stream.
	vectors := []struct {
		base  int64
		index int
		want  int64
	}{
		{1, 0, -7995527694508729151},
		{1, 1, -4689498862643123097},
		{2, 0, -7541218347953203506},
		{42, 7, -3677692746721775708},
	}
	for _, v := range vectors {
		if got := SeedFor(v.base, v.index); got != v.want {
			t.Fatalf("SeedFor(%d, %d) = %d, want %d", v.base, v.index, got, v.want)
		}
	}
}

func TestIndices(t *testing.T) {
	if got := Indices(0); got != nil {
		t.Fatalf("Indices(0) = %v", got)
	}
	if got := Indices(-1); got != nil {
		t.Fatalf("Indices(-1) = %v", got)
	}
	got := Indices(4)
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("Indices(4) = %v", got)
	}
}

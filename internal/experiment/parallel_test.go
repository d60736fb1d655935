package experiment

import (
	"reflect"
	"testing"
	"time"

	"deepnote/internal/fio"
	"deepnote/internal/units"
)

// The engine's contract: every parallelized grid returns byte-identical
// results for any worker count. These tests pin that for the hot grids.

func TestFigure2DeterministicAcrossWorkerCounts(t *testing.T) {
	opts := Figure2Options{Step: 200 * units.Hz, JobRuntime: 100 * time.Millisecond}
	run := func(workers int) Figure2Result {
		o := opts
		o.Workers = workers
		res, err := Figure2(fio.SeqWrite, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: Figure2 diverges from serial run", workers)
		}
	}
}

func TestAblationDeterministicAcrossWorkerCounts(t *testing.T) {
	ref, err := AblationWorkers(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := AblationWorkers(1, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: ablation rows diverge from serial run", workers)
		}
	}
}

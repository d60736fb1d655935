package attack

import (
	"reflect"
	"testing"

	"deepnote/internal/core"
	"deepnote/internal/fio"
)

func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	// The §4.1 two-phase sweep fans both passes over the worker pool; the
	// result — points, order, vulnerable set, bands — must be identical
	// for any parallelism.
	run := func(workers int) SweepResult {
		res, err := Sweeper{
			Scenario: core.Scenario2,
			Workers:  workers,
		}.Run(fio.SeqWrite)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := run(1)
	if len(ref.Points) == 0 || len(ref.Vulnerable) == 0 {
		t.Fatalf("degenerate reference sweep: %d points, %d vulnerable",
			len(ref.Points), len(ref.Vulnerable))
	}
	for _, workers := range []int{2, 8} {
		if got := run(workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: sweep diverges from serial run", workers)
		}
	}
}

package oracle

import (
	"testing"
	"time"

	"deepnote/internal/hdd"
	"deepnote/internal/units"
)

// stressModel lowers the retry budget and the retry cost and raises the
// jitter floor so op failures are common and failure-path accounting
// dominates observable latency — the operating regime where each
// historical timing bug has maximum statistical power. The stock
// Barracuda's 64-retry budget hides failures behind seconds of retrying,
// which is realistic but makes a differential test blind to small
// accounting errors.
func stressModel() hdd.Model {
	m := hdd.Barracuda500()
	m.BaseJitterFrac += 0.02
	m.MaxRetries = 2
	m.RetryRead = 100 * time.Microsecond
	m.RetryWrite = 100 * time.Microsecond
	return m
}

// mutationCells targets each bug's blind spot: inner-offset cells for the
// zoning bug, multi-chunk cells for the whole-request-window bug, and
// large failing reads for the failure-latency bug.
func mutationCells(m hdd.Model) []CellSpec {
	inner := m.CapacityBytes - (1 << 24)
	return []CellSpec{
		{Label: "zoning", Vib: hdd.Vibration{Freq: 1200 * units.Hz, Amplitude: 0.20},
			Op: hdd.OpWrite, Offset: inner, BlockSize: 4096},
		{Label: "multi-chunk", Vib: hdd.Vibration{Freq: 1200 * units.Hz, Amplitude: 0.17},
			Op: hdd.OpWrite, Offset: 0, BlockSize: 65536},
		{Label: "failure-latency", Vib: hdd.Vibration{Freq: 1200 * units.Hz, Amplitude: 0.23},
			Op: hdd.OpRead, Offset: 0, BlockSize: 1 << 20},
	}
}

func mutationDiffer(mu Mutation) Differ {
	return Differ{
		Model:      stressModel(),
		JobRuntime: 2 * time.Second,
		Repeats:    3,
		Seed:       1,
		Tolerance:  0.08,
		Workers:    4,
		Mutation:   mu,
	}
}

// TestMutationHarnessCleanPasses establishes that the tolerance below is
// tight but satisfiable: the faithful predictor agrees with the simulator
// on every mutation-target cell.
func TestMutationHarnessCleanPasses(t *testing.T) {
	rep, err := mutationDiffer(MutNone).Run(mutationCells(stressModel()))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("clean predictor must agree with the simulator:\n%s", rep.Table())
	}
}

// TestMutationsTripHarness is the proof the differential check has teeth:
// re-introducing any one of the three historical timing bugs into the
// predictor pushes at least one cell beyond tolerance. Equivalently,
// reverting the corresponding simulator fix (which would re-align the
// simulator with the mutant, not the faithful predictor) makes selfcheck
// fail.
func TestMutationsTripHarness(t *testing.T) {
	for _, mu := range []Mutation{MutFlatHoldWindow, MutWholeRequestWindow, MutFullBaseOnFailure} {
		t.Run(mu.String(), func(t *testing.T) {
			rep, err := mutationDiffer(mu).Run(mutationCells(stressModel()))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Passed() {
				t.Fatalf("harness failed to detect seeded bug %v:\n%s", mu, rep.Table())
			}
		})
	}
}

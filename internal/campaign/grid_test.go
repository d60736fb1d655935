package campaign

import (
	"reflect"
	"testing"
	"time"
)

// testGrid runs the 3×3 duty-cycle grid over 12 s campaigns: short enough
// to run many times in the determinism test, and still spanning the
// damage/stealth extremes (continuous vs 1:5 duty).
func testGrid(workers int) Grid {
	return Grid{
		Base:    Stealth{Duration: 12 * time.Second, Seed: 1},
		Workers: workers,
	}
}

func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	ref, err := testGrid(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 9 {
		t.Fatalf("cells = %d, want 9", len(ref))
	}
	for _, workers := range []int{2, 8} {
		got, err := testGrid(workers).Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: grid results diverge from serial run", workers)
		}
	}
}

func TestGridOrderingAndTradeoff(t *testing.T) {
	rows, err := testGrid(0).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Row-major order: gridOn outer, gridOff inner.
	if len(rows) != len(gridOn)*len(gridOff) {
		t.Fatalf("cells = %d, want %d", len(rows), len(gridOn)*len(gridOff))
	}
	for i, r := range rows {
		on, off := gridOn[i/len(gridOff)], gridOff[i%len(gridOff)]
		if r.Spec.Duty.On != on || r.Spec.Duty.Off != off {
			t.Fatalf("cell %d duty = %+v, want %v on / %v off", i, r.Spec.Duty, on, off)
		}
	}
	// The continuous 2 s-burst cell must out-damage the 1:5 stealth cell
	// (2 s on, 10 s off).
	if rows[6].LossFraction <= rows[8].LossFraction {
		t.Fatalf("continuous loss %.2f should exceed duty-cycled %.2f",
			rows[6].LossFraction, rows[8].LossFraction)
	}
	rep := GridReport(rows).String()
	if len(rep) == 0 {
		t.Fatal("empty grid report")
	}
}

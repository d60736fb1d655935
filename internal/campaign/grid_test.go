package campaign

import (
	"reflect"
	"testing"
	"time"
)

// testGrid is small enough to run many times in the determinism test but
// still covers the damage/stealth extremes (continuous vs 1:10 duty).
func testGrid(workers int) Grid {
	return Grid{
		Base:      Stealth{Duration: 12 * time.Second, Seed: 1},
		OnValues:  []time.Duration{500 * time.Millisecond, 2 * time.Second},
		OffValues: []time.Duration{0, 5 * time.Second},
		Workers:   workers,
	}
}

func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	ref, err := testGrid(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != 4 {
		t.Fatalf("cells = %d, want 4", len(ref))
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
	// Row-major order: OnValues outer, OffValues inner.
	wantDuty := [][2]time.Duration{
		{500 * time.Millisecond, 0},
		{500 * time.Millisecond, 5 * time.Second},
		{2 * time.Second, 0},
		{2 * time.Second, 5 * time.Second},
	}
	for i, r := range rows {
		if r.Spec.Duty.On != wantDuty[i][0] || r.Spec.Duty.Off != wantDuty[i][1] {
			t.Fatalf("cell %d duty = %+v, want %v", i, r.Spec.Duty, wantDuty[i])
		}
	}
	// The continuous 2 s-burst cell must out-damage the 1:10 stealth cell.
	if rows[2].LossFraction <= rows[3].LossFraction {
		t.Fatalf("continuous loss %.2f should exceed duty-cycled %.2f",
			rows[2].LossFraction, rows[3].LossFraction)
	}
	rep := GridReport(rows).String()
	if len(rep) == 0 {
		t.Fatal("empty grid report")
	}
}

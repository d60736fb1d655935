package sonar

import (
	"testing"

	"deepnote/internal/sig"
	"deepnote/internal/units"
)

// BenchmarkLocate measures one TDOA fix: the six-hydrophone facility
// array locating a 650 Hz speaker pressed against the first container of
// the 2 m line layout, from one noisy set of arrivals.
func BenchmarkLocate(b *testing.B) {
	arr, recs := locateInput()
	if _, err := arr.Locate(recs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Locate(recs)
	}
}

// TestLocateAllocs pins the allocation budget of one fix on the
// BenchmarkLocate input. Locate allocates the detecting elements'
// positions, pseudoranges and weights, and one scratch slice of ranges
// that every cost evaluation of the grid search and the refinement
// reuses: 4 allocations, whatever the grid size.
func TestLocateAllocs(t *testing.T) {
	arr, recs := locateInput()
	var err error
	allocs := testing.AllocsPerRun(20, func() { _, err = arr.Locate(recs) })
	if err != nil {
		t.Fatal(err)
	}
	const budget = 10
	if allocs > budget {
		t.Fatalf("Locate: %v allocs/op, budget %d", allocs, budget)
	}
}

func locateInput() (Array, []Reception) {
	lay := testLayout().WithSpeakersAt(sig.NewTone(650*units.Hz), 0)
	arr := FacilityArray(lay, 6, 3*units.Meter)
	return arr, arr.Receive(lay.Speakers[0].Pos, lay.Speakers[0].Tone, 1)
}

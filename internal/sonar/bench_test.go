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
	lay := testLayout().WithSpeakersAt(sig.NewTone(650*units.Hz), 0)
	arr := FacilityArray(lay, 6, 3*units.Meter)
	recs := arr.Receive(lay.Speakers[0].Pos, lay.Speakers[0].Tone, 1)
	if _, err := arr.Locate(recs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Locate(recs)
	}
}

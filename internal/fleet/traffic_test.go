package fleet

import (
	"math"
	"math/rand"
	"testing"
)

// TestRegionOfMatchesWeightWalk pins the region draw against the
// weighted walk it replaced: accumulate equal unit weights until the
// scaled draw falls below the running sum. For every site count the two
// must pick the same region on every draw, including draws just below 1.
func TestRegionOfMatchesWeightWalk(t *testing.T) {
	walk := func(u float64, S int) int {
		weights := make([]float64, S)
		sum := 0.0
		for s := range weights {
			weights[s] = 1
			sum += weights[s]
		}
		draw := u * sum
		site := 0
		for acc := weights[0]; site < S-1 && draw >= acc; {
			site++
			acc += weights[site]
		}
		return site
	}
	rng := rand.New(rand.NewSource(1))
	edges := []float64{0, math.Nextafter(1, 0), 1 - 1e-12, 1 - 1e-9, 0.5, math.Nextafter(0.5, 0)}
	for S := 1; S <= 8; S++ {
		for i := 1; i < S; i++ {
			k := float64(i) / float64(S)
			edges = append(edges, k, math.Nextafter(k, 0), math.Nextafter(k, 1))
		}
		check := func(u float64) {
			if got, want := regionOf(u, S), walk(u, S); got != want {
				t.Fatalf("S=%d u=%v: regionOf %d, weight walk %d", S, u, got, want)
			}
		}
		for _, u := range edges {
			check(u)
		}
		for n := 0; n < 100_000; n++ {
			check(rng.Float64())
		}
	}
}

//go:build !race

// The race detector instruments allocations, so allocation counts are only
// meaningful without it.

package forecast

import "testing"

// TestCacheHitPredictAllocatesNothing: once a day's code tiles are cached,
// PredictInto with a large enough dst allocates nothing, for Tree, RF and
// GBT: a hit neither quantizes nor builds a matrix.
func TestCacheHitPredictAllocatesNothing(t *testing.T) {
	const fitT, h, w = 30, 2, 5
	c := testContext(t, 90, 6, 83)
	c.ForestTrees = 4
	dst := make([]float64, c.Sectors())
	for _, m := range codeModels() {
		a, _ := fitCodeArtifact(t, c, m, fitT, h, w)
		predictBits(t, a, c, fitT, w) // the miss that fills the cache
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := a.PredictInto(c, fitT, w, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per cache-hit PredictInto, want 0", m.Name(), allocs)
		}
	}
}

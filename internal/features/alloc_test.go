//go:build !race

// The race detector randomly drops sync.Pool entries, so allocation
// counts are only meaningful without it.

package features

import (
	"runtime/debug"
	"testing"
)

// TestBuildAllocatesOnlyOutput: a projected Extract into a caller's
// buffer allocates nothing, and a full BuildAllSectors allocates its
// output matrix and nothing per sector or per cell.
func TestBuildAllocatesOnlyOutput(t *testing.T) {
	// A collection during the measured runs empties HandCrafted's
	// sync.Pool, and refilling it would count against the build. Hold
	// collection off; each measurement's warm-up run fills the pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	v := nanHeavyView(t)
	const end, w = 14, 7
	for _, ex := range []Extractor{Raw{}, Percentiles{}, HandCrafted{}} {
		ps := projections(ex.Width(v, w))
		for _, cols := range [][]int32{ps[0], ps[3], ps[4]} {
			out := make([]float64, len(cols))
			allocs := testing.AllocsPerRun(5, func() {
				for i := 0; i < v.Sectors(); i++ {
					ex.Extract(v, i, end, w, cols, out)
				}
			})
			if allocs != 0 {
				t.Errorf("%s with %d columns: %v allocations per projected extract of every sector, want 0", ex.Name(), len(cols), allocs)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := BuildAllSectors(v, ex, end, w); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: %v allocations per build, want 1 (the output)", ex.Name(), allocs)
		}
	}
}

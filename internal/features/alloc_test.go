//go:build !race

// The race detector randomly drops sync.Pool entries, so allocation
// counts are only meaningful without it.

package features

import (
	"runtime/debug"
	"testing"
)

// TestBuildAllocatesOnlyOutput: a build, projected or full, allocates its
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
		for _, cols := range [][]int{nil, ps[0], ps[3], ps[4]} {
			allocs := testing.AllocsPerRun(5, func() {
				if _, _, err := BuildAllSectorsCols(v, ex, end, w, cols); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Errorf("%s with %d columns: %v allocations per build, want 1 (the output)", ex.Name(), len(cols), allocs)
			}
		}
	}
}

package forecast

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"

	"repro/internal/features"
	"repro/internal/mltree"
)

// trainingRows returns the all-sector training instances of cutoff.
func trainingRows(c *Context, cutoff int) (sectors, ends []int) {
	all := make([]int, c.Sectors())
	for i := range all {
		all[i] = i
	}
	return trainingInstances(c, all, cutoff)
}

// sameBinned fails unless got and want hold the same codes, bins and
// threshold bits.
func sameBinned(t *testing.T, what string, got, want *mltree.Binned) {
	t.Helper()
	if got.N != want.N || got.F != want.F {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.N, got.F, want.N, want.F)
	}
	for i := range want.Codes {
		if got.Codes[i] != want.Codes[i] {
			t.Fatalf("%s: code %d (row %d, feature %d) = %d, want %d", what, i, i/want.F, i%want.F, got.Codes[i], want.Codes[i])
		}
	}
	for j := 0; j < want.F; j++ {
		if got.Bins[j] != want.Bins[j] || len(got.Thresholds[j]) != len(want.Thresholds[j]) {
			t.Fatalf("%s: feature %d has %d bins and %d thresholds, want %d and %d", what, j,
				got.Bins[j], len(got.Thresholds[j]), want.Bins[j], len(want.Thresholds[j]))
		}
		for b, v := range want.Thresholds[j] {
			if math.Float64bits(got.Thresholds[j][b]) != math.Float64bits(v) {
				t.Fatalf("%s: feature %d threshold %d = %v, want %v", what, j, b, got.Thresholds[j][b], v)
			}
		}
	}
}

// TestBinStripesMatchFullMatrix: a training build binned a stripe of
// columns at a time is bit-identical to mltree.Bin over the full float
// matrix of the same instances, for every extractor at w = 1, 3 and 7 and
// at 1 and 4 workers. Stripe edges must split a percentile group of 5 and
// a hand-crafted channel of 106, so the projected extraction is checked
// where a group straddles two stripes.
func TestBinStripesMatchFullMatrix(t *testing.T) {
	c := testContext(t, 110, 6, 59)
	const cutoff = 20
	sectors, ends := trainingRows(c, cutoff)
	n := len(sectors)
	// edges[name] collects the first column of every stripe row 0 fills.
	edges := map[string][]int{}
	var mu sync.Mutex
	for _, ex := range []features.Extractor{features.Raw{}, features.Percentiles{}, features.HandCrafted{}} {
		for _, w := range []int{1, 3, 7} {
			width := ex.Width(c.View, w)
			x := make([]float64, n*width)
			for r := range sectors {
				ex.Extract(c.View, sectors[r], ends[r], w, nil, x[r*width:(r+1)*width])
			}
			want, err := mltree.Bin(x, n, width, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				fw, fill, err := features.InstanceFill(c.View, ex, sectors, ends, w)
				if err != nil {
					t.Fatal(err)
				}
				got, err := mltree.BinFill(n, fw, workers, func(r, c0 int, out []float64) {
					if r == 0 {
						mu.Lock()
						edges[ex.Name()] = append(edges[ex.Name()], c0)
						mu.Unlock()
					}
					fill(r, c0, out)
				})
				if err != nil {
					t.Fatal(err)
				}
				sameBinned(t, fmt.Sprintf("%s w=%d, %d workers", ex.Name(), w, workers), got, want)
			}
		}
	}
	for name, group := range map[string]int{"percentiles": 5, "handcrafted": 106} {
		split := false
		for _, c0 := range edges[name] {
			split = split || c0%group != 0
		}
		if !split {
			t.Errorf("no stripe edge split a %s group of %d columns (stripes start at %v)", name, group, edges[name])
		}
	}
}

// TestRawBuildAllocatesNoFloatMatrix: a raw training build (the widest,
// 5,040 columns at w = 7) allocates its codes and thresholds plus scratch
// under a quarter of the n x F float matrix it quantizes: the matrix is
// never built.
func TestRawBuildAllocatesNoFloatMatrix(t *testing.T) {
	c := testContext(t, 110, 6, 61)
	c.TrainDays = 6
	c.CacheBytes = -1
	const t0, h, w = 24, 2, 7
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	runtime.GC()
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	mat, err := c.BinnedTrainingMatrix(features.Raw{}, t0, h, w)
	if err != nil {
		t.Fatal(err)
	}
	metrics.Read(sample)
	allocated := int64(sample[0].Value.Uint64() - before)
	floats := int64(mat.Rows) * int64(mat.Width) * 8
	scratch := allocated - mat.Bin.Bytes()
	t.Logf("%dx%d raw build: %d bytes allocated, %d of them codes and thresholds; the float matrix is %d bytes",
		mat.Rows, mat.Width, allocated, mat.Bin.Bytes(), floats)
	if scratch >= floats/4 {
		t.Fatalf("a raw build allocated %d bytes beyond its codes and thresholds, want < %d (a quarter of the %dx%d float matrix)",
			scratch, floats/4, mat.Rows, mat.Width)
	}
}

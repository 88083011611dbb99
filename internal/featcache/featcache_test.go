package featcache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func mkMatrix(rows, width int, fill float64) *Matrix {
	data := make([]float64, rows*width)
	for i := range data {
		data[i] = fill
	}
	return &Matrix{Data: data, Rows: rows, Width: width}
}

func TestCacheHitMiss(t *testing.T) {
	c := New(1 << 20)
	builds := 0
	build := func() (*Matrix, error) {
		builds++
		return mkMatrix(4, 8, 1), nil
	}
	k := Key{Extractor: "raw", End: 10, W: 7}
	a, err := c.GetOrBuild(k, build)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.GetOrBuild(k, build)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second get should return the same handle")
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
	}
	if s.Bytes != a.Bytes() || s.Entries != 1 {
		t.Fatalf("stats = %+v, want %d bytes in 1 entry", s, a.Bytes())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Budget fits exactly two 4x8 matrices (256 bytes each).
	c := New(512)
	get := func(end int) *Matrix {
		m, err := c.GetOrBuild(Key{Extractor: "raw", End: end, W: 1}, func() (*Matrix, error) {
			return mkMatrix(4, 8, float64(end)), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	get(1)
	get(2)
	get(1)      // 1 is now most recent
	get(3)      // evicts 2
	m := get(2) // rebuild
	if m.Data[0] != 2 {
		t.Fatal("rebuilt matrix has wrong payload")
	}
	s := c.Stats()
	if s.Evictions < 2 {
		t.Fatalf("evictions = %d, want >= 2 (2 then 1 or 3)", s.Evictions)
	}
	if s.Bytes > 512 {
		t.Fatalf("resident bytes %d exceed budget", s.Bytes)
	}
}

func TestCacheOversizeServedNotStored(t *testing.T) {
	c := New(100)
	k := Key{Extractor: "raw", End: 1, W: 1}
	m, err := c.GetOrBuild(k, func() (*Matrix, error) { return mkMatrix(10, 10, 1), nil })
	if err != nil {
		t.Fatal(err)
	}
	if m == nil || c.Len() != 0 {
		t.Fatalf("oversize matrix should be served but not stored (len=%d)", c.Len())
	}
	if s := c.Stats(); s.Oversize != 1 {
		t.Fatalf("oversize counter = %d, want 1", s.Oversize)
	}
}

func TestCacheSingleFlight(t *testing.T) {
	c := New(1 << 20)
	var builds atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	k := Key{Extractor: "raw", End: 5, W: 3}
	handles := make([]*Matrix, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			m, err := c.GetOrBuild(k, func() (*Matrix, error) {
				builds.Add(1)
				return mkMatrix(8, 8, 1), nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			handles[g] = m
		}(g)
	}
	close(start)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("concurrent gets ran %d builds, want 1", n)
	}
	for g := 1; g < 16; g++ {
		if handles[g] != handles[0] {
			t.Fatal("concurrent gets returned different handles")
		}
	}
}

func TestCacheBuildErrorNotCached(t *testing.T) {
	c := New(1 << 20)
	k := Key{Extractor: "raw", End: 5, W: 3}
	if _, err := c.GetOrBuild(k, func() (*Matrix, error) { return nil, fmt.Errorf("boom") }); err == nil {
		t.Fatal("build error swallowed")
	}
	m, err := c.GetOrBuild(k, func() (*Matrix, error) { return mkMatrix(2, 2, 1), nil })
	if err != nil || m == nil {
		t.Fatalf("retry after failed build should succeed: %v", err)
	}
}

func TestCompileDedupsSharedBuilds(t *testing.T) {
	// 2 t-values x 3 horizons x 1 window, TrainDays=2, one extractor.
	plan := Compile(Grid{
		Ts: []int{10, 11}, Hs: []int{1, 2, 3}, Ws: []int{7},
		TrainDays:  2,
		Extractors: []string{"raw"},
	})
	if plan.Points != 6 {
		t.Fatalf("points = %d, want 6", plan.Points)
	}
	// One stacked build per cutoff t-h = {9,8,7} u {10,9,8} = {7,8,9,10}:
	// 4 distinct builds over the 6 grid points. Prediction matrices are
	// projected per fitted model and never planned.
	if len(plan.Builds) != 4 {
		t.Fatalf("distinct builds = %d, want 4 (of 6 naive)", len(plan.Builds))
	}
	totalUses := 0
	for _, b := range plan.Builds {
		totalUses += b.Uses
		if b.Key.End > 10 {
			t.Fatalf("plan holds a prediction-day build: %+v", b.Key)
		}
		if b.Key.Days != 2 || b.Key.W != 7 {
			t.Fatalf("want a stacked 2-day build, got %+v", b.Key)
		}
	}
	if totalUses != 6 {
		t.Fatalf("total uses = %d, want 6", totalUses)
	}
	// Demand-major order.
	for i := 1; i < len(plan.Builds); i++ {
		if plan.Builds[i].Uses > plan.Builds[i-1].Uses {
			t.Fatalf("builds not in descending demand order: %+v", plan.Builds)
		}
	}
}

func TestCompileMultipleExtractorsAndWindows(t *testing.T) {
	plan := Compile(Grid{
		Ts: []int{20}, Hs: []int{1}, Ws: []int{3, 7},
		TrainDays:  1,
		Extractors: []string{"raw", "percentiles"},
	})
	// Per (extractor, w): training end {19} -> 1 build; 2 extractors x 2 ws.
	if len(plan.Builds) != 4 {
		t.Fatalf("builds = %d, want 4", len(plan.Builds))
	}
}

func TestWarmRespectsBudget(t *testing.T) {
	plan := Compile(Grid{
		Ts: []int{10, 11, 12}, Hs: []int{1, 2}, Ws: []int{7},
		TrainDays:  1,
		Extractors: []string{"raw"},
	})
	var fetched atomic.Int64
	// Every build estimated at 100 bytes; budget admits only 3.
	n := plan.Warm(4, 350, func(Key) int64 { return 100 }, func(Key) error {
		fetched.Add(1)
		return nil
	})
	if n != 3 || fetched.Load() != 3 {
		t.Fatalf("warmed %d builds (%d fetches), want 3 under a 350-byte budget", n, fetched.Load())
	}
	// Unlimited budget warms everything.
	fetched.Store(0)
	n = plan.Warm(4, 0, func(Key) int64 { return 100 }, func(Key) error {
		fetched.Add(1)
		return nil
	})
	if n != len(plan.Builds) || int(fetched.Load()) != len(plan.Builds) {
		t.Fatalf("unbounded warm ran %d of %d builds", n, len(plan.Builds))
	}
}

func TestWarmIgnoresFetchErrors(t *testing.T) {
	plan := Compile(Grid{Ts: []int{5}, Hs: []int{1}, Ws: []int{1}, TrainDays: 1, Extractors: []string{"raw"}})
	n := plan.Warm(2, 0, func(Key) int64 { return 1 }, func(Key) error { return fmt.Errorf("nope") })
	if n != len(plan.Builds) {
		t.Fatalf("warm stopped on fetch error: %d of %d", n, len(plan.Builds))
	}
}

func TestCompileBinnedDemand(t *testing.T) {
	// Two extractors at two windows: every (extractor, w) is planned as
	// quantized training builds, one per cutoff.
	plan := Compile(Grid{
		Ts: []int{10, 11}, Hs: []int{1, 2}, Ws: []int{3, 7},
		TrainDays:  2,
		Extractors: []string{"raw", "percentiles"},
	})
	// 3 cutoffs x (raw at 3 and 7, percentiles at 3 and 7) = 12 builds.
	if len(plan.Builds) != 12 {
		t.Fatalf("builds = %d, want 12 (one per extractor, cutoff and w)", len(plan.Builds))
	}
	// Cutoffs t-h: {10,11}-{1,2} = {8, 9, 10}; 9 is shared by (10,1) and
	// (11,2), so each (extractor, w) has 3 distinct builds carrying 4
	// grid-point uses.
	uses := map[[2]string]int{}
	cutoffs := map[[2]string]map[int]bool{}
	for _, b := range plan.Builds {
		if b.Key.Days != 2 {
			t.Fatalf("bad training key: %+v", b.Key)
		}
		k := [2]string{b.Key.Extractor, fmt.Sprint(b.Key.W)}
		uses[k] += b.Uses
		if cutoffs[k] == nil {
			cutoffs[k] = map[int]bool{}
		}
		cutoffs[k][b.Key.End] = true
	}
	for k, u := range uses {
		if u != 4 || len(cutoffs[k]) != 3 || !cutoffs[k][8] || !cutoffs[k][9] || !cutoffs[k][10] {
			t.Fatalf("%v: %d uses over cutoffs %v, want 4 over {8, 9, 10}", k, u, cutoffs[k])
		}
	}
	// The global order must stay demand-major.
	for i := 1; i < len(plan.Builds); i++ {
		if plan.Builds[i].Uses > plan.Builds[i-1].Uses {
			t.Fatalf("builds not in descending demand order: %+v", plan.Builds)
		}
	}
}

func TestCompileBinnedDeterministic(t *testing.T) {
	grid := Grid{
		Ts: []int{10, 11, 12}, Hs: []int{1, 2}, Ws: []int{3, 7},
		TrainDays:  2,
		Extractors: []string{"raw", "percentiles"},
	}
	want := Compile(grid)
	for r := 0; r < 10; r++ {
		got := Compile(grid)
		if len(got.Builds) != len(want.Builds) {
			t.Fatalf("build count varies: %d vs %d", len(got.Builds), len(want.Builds))
		}
		for i := range got.Builds {
			if got.Builds[i] != want.Builds[i] {
				t.Fatalf("build %d varies across compiles: %+v vs %+v",
					i, got.Builds[i], want.Builds[i])
			}
		}
	}
}

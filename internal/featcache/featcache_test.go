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

package forecast

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/featcache"
	"repro/internal/features"
)

// resident reports whether key is in cache, without building it.
func resident(cache *featcache.Cache, key featcache.Key) bool {
	_, err := cache.GetOrBuild(key, func() (*featcache.Matrix, error) {
		return nil, fmt.Errorf("not resident")
	})
	return err == nil
}

// A dropped Context's feature cache is collectable as soon as nothing
// but the process metrics registry saw it: the bytelru_* series hold the
// cache's counters, not its entries.
func TestDroppedContextFreesFeatureCache(t *testing.T) {
	freed := make(chan struct{})
	func() {
		c := testContext(t, 60, 6, 1)
		m, err := c.FeatureMatrix(features.Raw{}, 20, 7)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(m, func(*featcache.Matrix) { close(freed) })
	}()
	// The next context exists before it touches its own cache, as when
	// consecutive sweeps each start from a fresh context.
	next := testContext(t, 60, 6, 2)
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(next)
			return
		case <-deadline:
			t.Fatal("a dropped context's cached matrix was never collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// A sweep caches one quantized training build per (extractor, cutoff, w),
// and never a full-width per-day block.
func TestSweepCachesOneBuildPerCutoff(t *testing.T) {
	if testing.Short() {
		t.Skip("classifier sweeps are slow")
	}
	c := testContext(t, 80, 8, 53)
	c.ForestTrees = 4
	checkSweepBuilds(t, c, SweepConfig{
		Models:        []Model{NewTreeModel(), NewRFF1()},
		Target:        BeHot,
		Ts:            []int{24, 30},
		Hs:            []int{1, 4},
		Ws:            []int{7},
		RandomRepeats: 1,
		Workers:       2,
	})
}

// checkSweepBuilds runs cfg on an empty feature cache and checks that the
// sweep left resident one quantized training build per (extractor,
// cutoff t-h, w) that some model fits from, and no other: never a
// full-width per-day block, never a build for an unused extractor, cutoff
// or window. Fits fetch the builds on demand, so this pins what they read.
func checkSweepBuilds(t *testing.T, c *Context, cfg SweepConfig) {
	t.Helper()
	used := map[string]bool{}
	for _, m := range cfg.Models {
		switch m := m.(type) {
		case *ClassifierModel:
			used[m.Extractor.Name()] = true
		case *GBTModel:
			used[m.Extractor.Name()] = true
		}
	}
	cutoffs := map[int]bool{}
	for _, tt := range cfg.Ts {
		for _, h := range cfg.Hs {
			cutoffs[tt-h] = true
		}
	}
	ws := map[int]bool{}
	for _, w := range cfg.Ws {
		ws[w] = true
	}
	// Every fit reads through the feature cache, none from a trained model
	// an earlier sweep cached.
	defer func(b int64) { c.ModelCacheBytes = b }(c.ModelCacheBytes)
	c.ModelCacheBytes = -1
	defer func() { c.CacheBytes = 0 }()
	c.CacheBytes = DefaultCacheBytes + 1 // a new budget starts an empty cache
	if _, err := Sweep(c, cfg); err != nil {
		t.Fatal(err)
	}
	cache := c.FeatureCache()
	for _, ex := range []features.Extractor{features.Raw{}, features.Percentiles{}, features.HandCrafted{}} {
		for w := 1; w <= 8; w++ {
			for end := 0; end <= c.Days(); end++ {
				perDay := featcache.Key{Extractor: ex.Name(), End: end, W: w}
				if resident(cache, perDay) {
					t.Errorf("full-width per-day block %+v resident", perDay)
				}
				stacked := featcache.Key{Extractor: ex.Name(), End: end, W: w, Days: c.TrainDays}
				want := used[ex.Name()] && cutoffs[end] && ws[w]
				if got := resident(cache, stacked); got != want {
					t.Errorf("training build %+v resident = %t, want %t", stacked, got, want)
				}
			}
		}
	}
}

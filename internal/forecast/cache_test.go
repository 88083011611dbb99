package forecast

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/featcache"
	"repro/internal/features"
	"repro/internal/mltree"
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

// A sweep caches one training build per (extractor, cutoff, w) in the
// form its fits read: quantized only under hist, a stacked float slab
// only under exact, and never a full-width per-day block.
func TestSweepCachesOneBuildPerCutoff(t *testing.T) {
	if testing.Short() {
		t.Skip("classifier sweeps are slow")
	}
	c := testContext(t, 80, 8, 53)
	c.ForestTrees = 4
	defer func() { c.SplitAlgo = mltree.SplitAuto }()
	cfg := SweepConfig{
		Models:        []Model{NewTreeModel(), NewRFF1()},
		Target:        BeHot,
		Ts:            []int{24, 30},
		Hs:            []int{1, 4},
		Ws:            []int{7},
		RandomRepeats: 1,
		Workers:       2,
	}
	cutoffs := map[int]bool{}
	for _, tt := range cfg.Ts {
		for _, h := range cfg.Hs {
			cutoffs[tt-h] = true
		}
	}
	defer func() { c.CacheBytes = 0 }()
	for i, algo := range []mltree.SplitAlgo{mltree.SplitHist, mltree.SplitExact} {
		c.SplitAlgo = algo
		c.CacheBytes = DefaultCacheBytes + int64(i) // a new budget starts an empty cache
		if _, err := Sweep(c, cfg); err != nil {
			t.Fatal(err)
		}
		cache := c.FeatureCache()
		hist := algo == mltree.SplitHist
		for _, ex := range []string{"raw", "percentiles"} {
			for end := 0; end <= c.Days(); end++ {
				perDay := featcache.Key{Extractor: ex, End: end, W: 7}
				if resident(cache, perDay) {
					t.Errorf("%s: full-width per-day block %+v resident", algo, perDay)
				}
				stacked := featcache.Key{Extractor: ex, End: end, W: 7, Days: c.TrainDays}
				binned := stacked
				binned.Binned = true
				if got, want := resident(cache, stacked), !hist && cutoffs[end]; got != want {
					t.Errorf("%s: float stacked %+v resident = %t, want %t", algo, stacked, got, want)
				}
				if got, want := resident(cache, binned), hist && cutoffs[end]; got != want {
					t.Errorf("%s: binned %+v resident = %t, want %t", algo, binned, got, want)
				}
			}
		}
	}
}

// The prewarmer's size estimate never undercounts a build, so warming
// cannot overrun the cache budget.
func TestWarmBytesBoundsBuilds(t *testing.T) {
	c := testContext(t, 60, 6, 3)
	c.CacheBytes = -1
	defer func() { c.CacheBytes = 0 }()
	const cutoff, w = 25, 5
	for _, ex := range []features.Extractor{features.Raw{}, features.Percentiles{}, features.HandCrafted{}} {
		key := featcache.Key{Extractor: ex.Name(), End: cutoff, W: w, Days: c.TrainDays}
		m, err := c.trainingMatrixAt(ex, cutoff, w)
		if err != nil {
			t.Fatal(err)
		}
		if est := warmBytes(c, ex, key); est < m.Bytes() {
			t.Errorf("%s float: estimate %d < built %d bytes", ex.Name(), est, m.Bytes())
		}
		key.Binned = true
		m, err = c.binnedTrainingMatrixAt(ex, cutoff, w)
		if err != nil {
			t.Fatal(err)
		}
		if est := warmBytes(c, ex, key); est < m.Bytes() {
			t.Errorf("%s binned: estimate %d < built %d bytes", ex.Name(), est, m.Bytes())
		}
	}
}

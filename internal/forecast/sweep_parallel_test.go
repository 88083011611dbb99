package forecast

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// sameRecords compares two sweep outcomes field by field (NaN == NaN).
func sameRecords(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if len(a.Records) != len(b.Records) {
		t.Fatalf("%s: record counts differ: %d vs %d", label, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		identity := ra.Model == rb.Model && ra.Target == rb.Target &&
			ra.T == rb.T && ra.H == rb.H && ra.W == rb.W && ra.Positives == rb.Positives
		if !identity {
			t.Fatalf("%s: record %d identity differs:\n%+v\n%+v", label, i, ra, rb)
		}
		if !eqNaN(ra.Psi, rb.Psi) || !eqNaN(ra.PsiRandom, rb.PsiRandom) || !eqNaN(ra.Lift, rb.Lift) {
			t.Fatalf("%s: record %d values differ:\n%+v\n%+v", label, i, ra, rb)
		}
	}
}

// TestSweepParallelMatchesSequential is the engine's core contract: fanning
// grid points and psi-random repetitions across workers must be
// bit-identical to the sequential path, because every RNG stream is keyed
// by the grid point rather than by scheduling order.
func TestSweepParallelMatchesSequential(t *testing.T) {
	c := testContext(t, 80, 8, 21)
	cfg := SweepConfig{
		Models:        Baselines(),
		Target:        BeHot,
		Ts:            []int{22, 25, 28, 31},
		Hs:            []int{1, 3, 5},
		Ws:            []int{3, 7},
		RandomRepeats: 4,
	}
	cfg.Workers = 1
	seq, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		cfg.Workers = workers
		par, err := Sweep(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, seq, par, "baselines")
	}
}

// TestSweepParallelMatchesSequentialClassifiers extends the contract
// through the classifier stack: the forest fit inside each grid point runs
// its own tree-level pool, and both levels must stay deterministic.
func TestSweepParallelMatchesSequentialClassifiers(t *testing.T) {
	if testing.Short() {
		t.Skip("classifier sweeps are slow")
	}
	c := testContext(t, 80, 8, 22)
	c.ForestTrees = 6
	// Disable the trained-model cache: this test must re-run the classifier
	// fits at both worker counts, not serve the second sweep from the first.
	c.ModelCacheBytes = -1
	cfg := SweepConfig{
		Models:        []Model{NewTreeModel(), NewRFF1()},
		Target:        BeHot,
		Ts:            []int{22, 26},
		Hs:            []int{1, 3},
		Ws:            []int{7},
		RandomRepeats: 3,
	}
	cfg.Workers = 1
	c.FitWorkers = 1
	seq, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	c.FitWorkers = 4
	par, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, seq, par, "classifiers")
}

// TestSweepCachedMatchesUncachedTiny is the feature cache's core
// contract at -short cost: serving shared cached matrices must be
// bit-identical to rebuilding per grid point, at any worker count.
func TestSweepCachedMatchesUncachedTiny(t *testing.T) {
	c := testContext(t, 60, 8, 25)
	c.ForestTrees = 4
	c.FitWorkers = 1
	// Isolate the feature cache: the trained-model cache would otherwise
	// serve the cached arms' fits from the uncached arm.
	c.ModelCacheBytes = -1
	cfg := SweepConfig{
		Models:        []Model{AverageModel{}, NewTreeModel()},
		Target:        BeHot,
		Ts:            []int{22, 24},
		Hs:            []int{1, 3},
		Ws:            []int{3},
		RandomRepeats: 2,
		Workers:       1,
	}
	c.CacheBytes = -1 // disabled: the pre-refactor build-per-point path
	uncached, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CacheBytes = 0 // default budget
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		cached, err := Sweep(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, uncached, cached, "cached-vs-uncached")
	}
	if s := c.FeatureCache().Stats(); s.Hits == 0 {
		t.Fatalf("cache never hit on an overlapping grid: %+v", s)
	}
}

// TestSweepCachedMatchesUncached extends the cached == uncached contract
// through the full classifier stack (forest, GBT) and a tight byte budget
// that forces evictions mid-sweep.
func TestSweepCachedMatchesUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("classifier sweeps are slow")
	}
	c := testContext(t, 80, 8, 26)
	c.ForestTrees = 6
	c.FitWorkers = 1
	// Isolate the feature cache (see TestSweepCachedMatchesUncachedTiny).
	c.ModelCacheBytes = -1
	gbt := NewGBT()
	gbt.Config.Rounds = 8
	cfg := SweepConfig{
		Models:        []Model{NewRFF1(), NewRFF2(), gbt},
		Target:        BeHot,
		Ts:            []int{22, 25, 28},
		Hs:            []int{1, 2, 3},
		Ws:            []int{3, 7},
		RandomRepeats: 3,
		Workers:       1,
	}
	c.CacheBytes = -1
	uncached, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1 << 20} { // default, and tight enough to evict
		c.CacheBytes = budget
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			cached, err := Sweep(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, uncached, cached, "cached-vs-uncached-classifiers")
		}
	}
}

// TestSweepStreamMatchesSweep: the streaming API must emit exactly the
// records Sweep collects, in the same order, at any worker count.
func TestSweepStreamMatchesSweep(t *testing.T) {
	c := testContext(t, 80, 8, 27)
	cfg := SweepConfig{
		Models:        Baselines(),
		Target:        BeHot,
		Ts:            []int{22, 25, 28},
		Hs:            []int{1, 3},
		Ws:            []int{3, 7},
		RandomRepeats: 3,
		Workers:       1,
	}
	collected, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		streamed := &Result{}
		if err := SweepStream(c, cfg, func(rec Record) error {
			streamed.Records = append(streamed.Records, rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sameRecords(t, collected, streamed, "stream-vs-collect")
	}
}

// TestSweepStreamEmitErrorStops: an emit error cancels the sweep and
// propagates; no records after the failing one are delivered.
func TestSweepStreamEmitErrorStops(t *testing.T) {
	c := testContext(t, 60, 8, 28)
	cfg := SweepConfig{
		Models:        Baselines(),
		Target:        BeHot,
		Ts:            []int{22, 24, 26, 28},
		Hs:            []int{1, 2},
		Ws:            []int{3},
		RandomRepeats: 2,
		Workers:       4,
	}
	seen := 0
	err := SweepStream(c, cfg, func(Record) error {
		seen++
		if seen == 5 {
			return fmt.Errorf("sink closed")
		}
		return nil
	})
	if err == nil || err.Error() != "sink closed" {
		t.Fatalf("err = %v, want sink closed", err)
	}
	if seen != 5 {
		t.Fatalf("emitted %d records after the error, want exactly 5", seen)
	}
}

// TestSweepSpeedup measures the engine's point: on multicore hardware the
// parallel sweep must be at least 2x faster than the sequential path. It
// self-skips on small machines (CI runners with < 4 cores) where the
// speedup cannot physically materialise.
func TestSweepSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement is slow")
	}
	cores := runtime.NumCPU()
	if cores < 4 {
		t.Skipf("need >= 4 cores to demonstrate 2x speedup, have %d", cores)
	}
	c := testContext(t, 150, 10, 23)
	c.ForestTrees = 12
	c.FitWorkers = 1       // one thread per grid point: the sweep pool is the lever
	c.ModelCacheBytes = -1 // refit per run: cached fits would erase the speedup being measured
	cfg := SweepConfig{
		Models:        []Model{NewRFF1()},
		Target:        BeHot,
		Ts:            []int{25, 28, 31, 34, 37, 40},
		Hs:            []int{1, 3, 5, 7},
		Ws:            []int{7},
		RandomRepeats: 3,
	}
	run := func(workers int) time.Duration {
		cfg.Workers = workers
		start := time.Now()
		if _, err := Sweep(c, cfg); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	run(cores) // warm up caches and the page allocator
	seq := run(1)
	par := run(cores)
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, parallel(%d workers) %v: %.2fx", seq, cores, par, speedup)
	if speedup < 2 {
		t.Errorf("parallel sweep speedup %.2fx < 2x on %d cores", speedup, cores)
	}
}

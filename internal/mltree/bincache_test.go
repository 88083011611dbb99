package mltree

import (
	"reflect"
	"testing"

	"repro/internal/randx"
)

// binCacheFixture builds a small two-class training set and resets the
// shared quantization cache around the test.
func binCacheFixture(t *testing.T, n, f int, seed uint64) (x []float64, y []int) {
	t.Helper()
	SetBinCacheBytes(0)
	t.Cleanup(func() { SetBinCacheBytes(0) })
	rng := randx.New(seed, 77)
	x = make([]float64, n*f)
	y = make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < f; j++ {
			x[i*f+j] = rng.Norm(0, 1)
		}
		if x[i*f]+x[i*f+1] > 0 {
			y[i] = 1
		}
	}
	return x, y
}

// TestBinSharedReusesQuantization is the regression gate for the shared
// quantization layer: a second raw hist fit on the same matrix must hit
// the bin cache instead of re-binning, a mutated matrix must miss, and
// changed weights (which move the quantile cuts) must key separately.
func TestBinSharedReusesQuantization(t *testing.T) {
	x, y := binCacheFixture(t, 400, 10, 3)
	cfg := TreeConfig()

	tr1, err := FitTree(x, 400, 10, y, nil, 2, cfg, randx.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	s1 := BinCacheStats()
	if s1.Misses != 1 || s1.Entries != 1 {
		t.Fatalf("first fit: stats %+v, want one miss and one entry", s1)
	}

	tr2, err := FitTree(x, 400, 10, y, nil, 2, cfg, randx.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	s2 := BinCacheStats()
	if s2.Hits != s1.Hits+1 || s2.Misses != s1.Misses {
		t.Fatalf("refit on identical matrix: stats %+v after %+v, want one new hit and no new miss", s2, s1)
	}
	if !reflect.DeepEqual(tr1, tr2) {
		t.Fatal("refit from cached quantization is not bit-identical")
	}

	// A single mutated cell changes the content fingerprint.
	x[17] += 0.5
	if _, err := FitTree(x, 400, 10, y, nil, 2, cfg, randx.New(1, 2)); err != nil {
		t.Fatal(err)
	}
	s3 := BinCacheStats()
	if s3.Misses != s2.Misses+1 {
		t.Fatalf("mutated matrix did not miss: stats %+v after %+v", s3, s2)
	}

	// Weighted quantiles differ from uniform ones: same matrix, new key.
	w := BalancedWeights(y, 2)
	if _, err := FitTree(x, 400, 10, y, w, 2, cfg, randx.New(1, 2)); err != nil {
		t.Fatal(err)
	}
	s4 := BinCacheStats()
	if s4.Misses != s3.Misses+1 {
		t.Fatalf("weighted fit shared the uniform quantization: stats %+v after %+v", s4, s3)
	}
}

// TestBinSharedAcrossFitEntryPoints: the tree, forest, GBT and regression
// entry points all route through one cache, so a forest fit after a tree
// fit with the same (matrix, weights) reuses the quantization — and so do
// repeated GBT and regression fits.
func TestBinSharedAcrossFitEntryPoints(t *testing.T) {
	x, y := binCacheFixture(t, 300, 8, 9)

	treeCfg := ForestTreeConfig()
	if _, err := FitTree(x, 300, 8, y, nil, 2, treeCfg, randx.New(4, 5)); err != nil {
		t.Fatal(err)
	}
	after1 := BinCacheStats()

	fcfg := ForestConfig{NumTrees: 3, Tree: treeCfg, Bootstrap: true, Seed: 11}
	if _, err := FitForest(x, 300, 8, y, nil, 2, fcfg); err != nil {
		t.Fatal(err)
	}
	after2 := BinCacheStats()
	if after2.Misses != after1.Misses || after2.Hits != after1.Hits+1 {
		t.Fatalf("forest fit did not reuse the tree fit's quantization: %+v after %+v", after2, after1)
	}

	gcfg := DefaultGBTConfig()
	gcfg.Rounds = 4
	if _, err := FitGBT(x, 300, 8, y, nil, gcfg); err != nil {
		t.Fatal(err)
	}
	if _, err := FitGBT(x, 300, 8, y, nil, gcfg); err != nil {
		t.Fatal(err)
	}
	after3 := BinCacheStats()
	if after3.Hits != after2.Hits+2 {
		t.Fatalf("GBT fits did not reuse the shared quantization: %+v after %+v", after3, after2)
	}

	targets := make([]float64, len(y))
	for i, c := range y {
		targets[i] = float64(c)
	}
	rcfg := RegressionConfig{MaxDepth: 4, MinSamplesLeaf: 5, Rule: SqrtFeatures}
	if _, err := FitRegressionTree(x, 300, 8, targets, nil, rcfg, randx.New(6, 7)); err != nil {
		t.Fatal(err)
	}
	after4 := BinCacheStats()
	if after4.Hits != after3.Hits+1 {
		t.Fatalf("regression fit did not reuse the shared quantization: %+v after %+v", after4, after3)
	}
}

// TestBinCacheDisabledMatchesCached: with the cache off every fit re-bins,
// stats stay zero, and the model is bit-identical to the cached-path one —
// the cache is a pure cost optimization, never a behavior change.
func TestBinCacheDisabledMatchesCached(t *testing.T) {
	x, y := binCacheFixture(t, 250, 6, 13)
	cfg := TreeConfig()

	cached, err := FitTree(x, 250, 6, y, nil, 2, cfg, randx.New(8, 9))
	if err != nil {
		t.Fatal(err)
	}

	SetBinCacheBytes(-1)
	if got := BinCacheStats(); got != (Stats{}) {
		t.Fatalf("disabled cache reports stats %+v", got)
	}
	fresh, err := FitTree(x, 250, 6, y, nil, 2, cfg, randx.New(8, 9))
	if err != nil {
		t.Fatal(err)
	}
	if got := BinCacheStats(); got != (Stats{}) {
		t.Fatalf("disabled cache recorded activity: %+v", got)
	}
	if !reflect.DeepEqual(cached, fresh) {
		t.Fatal("cache-off fit differs from cached fit")
	}
}

// TestBinFingerprintSeparatesPayloads: the matrix/weights boundary is part
// of the fingerprint, so shifting a value across it changes the key.
func TestBinFingerprintSeparatesPayloads(t *testing.T) {
	a1, a2 := binFingerprint([]float64{1, 2, 3}, []float64{4})
	b1, b2 := binFingerprint([]float64{1, 2}, []float64{3, 4})
	if a1 == b1 && a2 == b2 {
		t.Fatal("fingerprint does not separate matrix from weights")
	}
	c1, c2 := binFingerprint([]float64{1, 2, 3}, []float64{4})
	if c1 != a1 || c2 != a2 {
		t.Fatal("fingerprint is not deterministic")
	}
}

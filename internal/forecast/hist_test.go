package forecast

import (
	"math"
	"testing"

	"repro/internal/featcache"
	"repro/internal/mltree"
)

// histSweepConfig is the shared tiny grid for the hist-mode sweep tests:
// every classifier plus GBT, two forecast days, two horizons.
func histSweepConfig(workers int) SweepConfig {
	gbt := NewGBT()
	gbt.Config.Rounds = 10
	return SweepConfig{
		Models:        append(Classifiers(), gbt),
		Target:        BeHot,
		Ts:            []int{24, 30},
		Hs:            []int{1, 4},
		Ws:            []int{7},
		RandomRepeats: 3,
		Workers:       workers,
	}
}

// TestSweepHistParityTiny is the accuracy-parity gate for the histogram
// engine: on the tiny-scale grid, hist-mode sweep metrics must track the
// exact-mode ones — the quantized split search may move individual
// thresholds but not degrade ranking quality.
func TestSweepHistParityTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("classifier sweeps are slow")
	}
	c := testContext(t, 200, 10, 17)
	c.ForestTrees = 6

	run := func(algo mltree.SplitAlgo) *Result {
		c.SplitAlgo = algo
		c.ModelCacheBytes = -1 // refit per sweep; the cache would key on algo anyway
		res, err := Sweep(c, histSweepConfig(2))
		if err != nil {
			t.Fatalf("%v sweep: %v", algo, err)
		}
		return res
	}
	exact := run(mltree.SplitExact)
	hist := run(mltree.SplitHist)
	defer func() { c.SplitAlgo = mltree.SplitExact }()

	if len(exact.Records) != len(hist.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(exact.Records), len(hist.Records))
	}
	// Per-model mean psi over the grid must agree within tolerance; the
	// chance-level psi is model-free and must be bit-identical.
	sums := map[string][2]float64{}
	counts := map[string]int{}
	for i := range exact.Records {
		re, rh := exact.Records[i], hist.Records[i]
		if re.Model != rh.Model || re.T != rh.T || re.H != rh.H || re.W != rh.W {
			t.Fatalf("record %d identity differs: %+v vs %+v", i, re, rh)
		}
		if !(math.IsNaN(re.PsiRandom) && math.IsNaN(rh.PsiRandom)) && re.PsiRandom != rh.PsiRandom {
			t.Fatalf("record %d: chance-level psi differs: %v vs %v", i, re.PsiRandom, rh.PsiRandom)
		}
		if math.IsNaN(re.Psi) != math.IsNaN(rh.Psi) {
			t.Fatalf("record %d: NaN pattern differs: %v vs %v", i, re.Psi, rh.Psi)
		}
		if math.IsNaN(re.Psi) {
			continue
		}
		s := sums[re.Model]
		sums[re.Model] = [2]float64{s[0] + re.Psi, s[1] + rh.Psi}
		counts[re.Model]++
	}
	const tolerance = 0.12
	for model, s := range sums {
		n := float64(counts[model])
		meanExact, meanHist := s[0]/n, s[1]/n
		if diff := math.Abs(meanExact - meanHist); diff > tolerance {
			t.Errorf("%s: mean psi exact %.3f vs hist %.3f (|diff| %.3f > %.2f)",
				model, meanExact, meanHist, diff, tolerance)
		}
	}
}

// TestSweepHistDeterministic: hist-mode records must be bit-identical at
// any worker count and with the feature cache (which also holds the
// binned training matrices) on or off — RNG streams are keyed by item
// identity and binning is deterministic, so scheduling must never show.
func TestSweepHistDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("classifier sweeps are slow")
	}
	c := testContext(t, 150, 10, 23)
	c.ForestTrees = 5
	c.SplitAlgo = mltree.SplitHist
	defer func() { c.SplitAlgo = mltree.SplitExact }()

	c.CacheBytes = 0 // default budget, cache on
	base, err := Sweep(c, histSweepConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []struct {
		name       string
		workers    int
		cacheBytes int64
	}{
		{"workers=4 cached", 4, 0},
		{"workers=1 uncached", 1, -1},
		{"workers=4 uncached", 4, -1},
	} {
		c.CacheBytes = variant.cacheBytes
		got, err := Sweep(c, histSweepConfig(variant.workers))
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		sameRecords(t, base, got, "hist "+variant.name)
	}
	c.CacheBytes = 0
}

// TestSweepAutoResolvesExactOnTinyGrids: on tiny training sets the auto
// knob (now the default) must land on the exact engine (the work estimate
// sits below the hist threshold), keeping small-scale records
// bit-identical to the historical exact-by-default ones.
func TestSweepAutoResolvesExactOnTinyGrids(t *testing.T) {
	c := testContext(t, 100, 10, 29)
	c.ForestTrees = 4
	c.ModelCacheBytes = -1

	cfg := histSweepConfig(2)
	cfg.Models = []Model{NewRFF1()}
	c.SplitAlgo = mltree.SplitExact
	exact, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SplitAlgo = mltree.SplitAuto
	auto, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.SplitAlgo = mltree.SplitExact
	sameRecords(t, exact, auto, "auto-on-tiny")
}

// TestHistArtifactRoundTrip: hist-trained artifacts run through the same
// versioned envelope as exact ones — encode, decode, and predict
// bit-identically at the fit day and a later serving day.
func TestHistArtifactRoundTrip(t *testing.T) {
	c := testContext(t, 120, 8, 37)
	c.ForestTrees = 5
	c.SplitAlgo = mltree.SplitHist
	defer func() { c.SplitAlgo = mltree.SplitExact }()

	gbt := NewGBT()
	gbt.Config.Rounds = 8
	const fitT, h, w = 30, 2, 5
	for _, m := range []Model{NewTreeModel(), NewRFF1(), gbt} {
		tr, err := m.Fit(c, BeHot, fitT, h, w)
		if err != nil {
			t.Fatalf("%s: fit: %v", m.Name(), err)
		}
		data, err := EncodeModel(tr)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Name(), err)
		}
		got, err := DecodeModel(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Name(), err)
		}
		for _, day := range []int{fitT, fitT + 2} {
			want, err := tr.Predict(c, day, w)
			if err != nil {
				t.Fatalf("%s: predict t=%d: %v", m.Name(), day, err)
			}
			have, err := got.Predict(c, day, w)
			if err != nil {
				t.Fatalf("%s: decoded predict t=%d: %v", m.Name(), day, err)
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("%s: t=%d sector %d: %v != %v after round trip",
						m.Name(), day, i, want[i], have[i])
				}
			}
		}
	}
}

// TestBinnedTrainingMatrixCachedMatchesUncached: the quantized training
// matrix served from the cache must be bit-identical to a direct build,
// and grid points sharing a cutoff must share one handle.
func TestBinnedTrainingMatrixCachedMatchesUncached(t *testing.T) {
	c := testContext(t, 100, 8, 43)
	ex := NewRFF1().Extractor

	c.CacheBytes = -1
	direct, err := c.BinnedTrainingMatrix(ex, 30, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	c.CacheBytes = 0
	cached, err := c.BinnedTrainingMatrix(ex, 30, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Rows != direct.Rows || cached.Width != direct.Width {
		t.Fatalf("shape differs: %dx%d vs %dx%d", cached.Rows, cached.Width, direct.Rows, direct.Width)
	}
	if len(cached.Bin.Codes) != len(direct.Bin.Codes) {
		t.Fatal("code payloads differ in size")
	}
	for i := range cached.Bin.Codes {
		if cached.Bin.Codes[i] != direct.Bin.Codes[i] {
			t.Fatalf("code %d differs between cached and direct build", i)
		}
	}
	// (t=30, h=2) and (t=31, h=3) share cutoff 28: one quantization.
	a, err := c.BinnedTrainingMatrix(ex, 30, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.BinnedTrainingMatrix(ex, 31, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("grid points sharing a cutoff did not share the cached binned matrix")
	}
	c.CacheBytes = 0
}

// TestWarmPrewarmsBinnedMatrices: the sweep prewarmer must build the
// quantized training matrices hist-mode fits consume — every (extractor,
// cutoff, w) the grid demands is resident before evaluation starts — and
// the warmed cached sweep must stay bit-identical to the uncached one.
func TestWarmPrewarmsBinnedMatrices(t *testing.T) {
	if testing.Short() {
		t.Skip("classifier sweeps are slow")
	}
	c := testContext(t, 120, 10, 47)
	c.ForestTrees = 4
	c.SplitAlgo = mltree.SplitHist
	c.ModelCacheBytes = -1
	defer func() { c.SplitAlgo = mltree.SplitExact }()

	gbt := NewGBT()
	gbt.Config.Rounds = 8
	cfg := SweepConfig{
		Models:        []Model{NewTreeModel(), gbt},
		Target:        BeHot,
		Ts:            []int{24, 30},
		Hs:            []int{1, 4},
		Ws:            []int{7},
		RandomRepeats: 2,
		Workers:       2,
	}

	c.CacheBytes = 0
	cache := c.FeatureCache()
	warmFeatureCache(c, cfg)

	// With SplitHist forced, both models bin; the grid's binned keys are
	// one per (extractor, cutoff t-h, w).
	for _, ex := range []string{NewTreeModel().Extractor.Name(), gbt.Extractor.Name()} {
		for _, tt := range cfg.Ts {
			for _, h := range cfg.Hs {
				key := featcache.Key{Extractor: ex, End: tt - h, W: 7, Binned: true, Days: c.TrainDays}
				if !resident(cache, key) {
					t.Fatalf("binned build (%s, cutoff=%d, w=7) not resident after warm", ex, tt-h)
				}
			}
		}
	}

	// The warmed cached sweep serves fits from prewarmed quantizations;
	// records must be bit-identical to a cache-off sweep.
	warmed, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CacheBytes = -1
	uncached, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.CacheBytes = 0
	sameRecords(t, uncached, warmed, "warmed-binned")
}

// TestBinnedDemandMirrorsFitDecisions: the prewarmer quantizes exactly the
// (extractor, w) combinations some model will consume in hist form —
// nothing under exact mode, everything under forced hist, and the
// work-threshold subset under auto.
func TestBinnedDemandMirrorsFitDecisions(t *testing.T) {
	c := testContext(t, 100, 10, 53)
	cfg := histSweepConfig(1)

	c.SplitAlgo = mltree.SplitExact
	if got := binnedDemand(c, cfg); got != nil {
		t.Fatalf("exact mode demands binned builds: %v", got)
	}

	c.SplitAlgo = mltree.SplitHist
	got := binnedDemand(c, cfg)
	for _, m := range cfg.Models {
		fm, ok := m.(featureModel)
		if !ok || fm.featureExtractor() == nil {
			continue
		}
		name := fm.featureExtractor().Name()
		if len(got[name]) != len(cfg.Ws) {
			t.Fatalf("hist mode: extractor %s demands ws %v, want %v", name, got[name], cfg.Ws)
		}
	}

	// Auto must agree with each fit's own resolution.
	c.SplitAlgo = mltree.SplitAuto
	got = binnedDemand(c, cfg)
	rows := c.TrainDays * c.Sectors()
	gbt := NewGBT()
	for _, w := range cfg.Ws {
		work := mltree.SplitWork(mltree.Config{Rule: mltree.SqrtFeatures}, rows, gbt.Extractor.Width(c.View, w))
		wantHist := mltree.SplitAuto.Resolve(work) == mltree.SplitHist
		has := false
		for _, gw := range got[gbt.Extractor.Name()] {
			if gw == w {
				has = true
			}
		}
		if has != wantHist {
			t.Fatalf("auto mode: extractor %s w=%d prewarm=%t, fit resolves hist=%t",
				gbt.Extractor.Name(), w, has, wantHist)
		}
	}
	c.SplitAlgo = mltree.SplitExact
}

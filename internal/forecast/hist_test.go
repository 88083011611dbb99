package forecast

import "testing"

// histSweepConfig is the shared tiny grid for the sweep tests:
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

// TestHistArtifactRoundTrip: hist-trained artifacts run through the same
// versioned envelope as exact ones — encode, decode, and predict
// bit-identically at the fit day and a later serving day.
func TestHistArtifactRoundTrip(t *testing.T) {
	c := testContext(t, 120, 8, 37)
	c.ForestTrees = 5

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

// TestBinnedDemandMirrorsFitDecisions: a sweep of every classifier plus
// GBT quantizes exactly the training builds its fits read — for every
// extractor some model fits from, one per (cutoff t-h, w) of the grid,
// and no other.
func TestBinnedDemandMirrorsFitDecisions(t *testing.T) {
	c := testContext(t, 100, 10, 53)
	c.ForestTrees = 4
	checkSweepBuilds(t, c, histSweepConfig(2))
}

package forecast

import (
	"testing"

	"repro/internal/bytelru"
)

// TestForecastMatchesFitPredict: Forecast is a thin Fit+Predict shim —
// the split must be invisible in the scores, for every model, with the
// trained-model cache both on and off.
func TestForecastMatchesFitPredict(t *testing.T) {
	for _, budget := range []int64{-1, 0} {
		c := testContext(t, 100, 8, 36)
		c.ForestTrees = 6
		c.ModelCacheBytes = budget
		const fitT, h, w = 30, 2, 5
		for _, m := range artifactModels() {
			want, err := m.Forecast(c, BeHot, fitT, h, w)
			if err != nil {
				t.Fatalf("%s: forecast: %v", m.Name(), err)
			}
			tr, err := m.Fit(c, BeHot, fitT, h, w)
			if err != nil {
				t.Fatalf("%s: fit: %v", m.Name(), err)
			}
			have, err := tr.Predict(c, fitT, w)
			if err != nil {
				t.Fatalf("%s: predict: %v", m.Name(), err)
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("%s (budget %d): sector %d: Forecast %v != Fit+Predict %v",
						m.Name(), budget, i, want[i], have[i])
				}
			}
		}
	}
}

// TestSweepModelCacheBitIdentical: sweeping with the trained-model cache
// enabled — including repeated sweeps served entirely from cache — must be
// bit-identical to refitting every point, at any worker count.
func TestSweepModelCacheBitIdentical(t *testing.T) {
	c := testContext(t, 80, 8, 37)
	c.ForestTrees = 4
	c.FitWorkers = 1
	cfg := SweepConfig{
		Models:        []Model{AverageModel{}, NewTreeModel(), NewRFF1()},
		Target:        BeHot,
		Ts:            []int{22, 24},
		Hs:            []int{1, 3},
		Ws:            []int{3},
		RandomRepeats: 2,
		Workers:       1,
	}
	c.ModelCacheBytes = -1
	uncached, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.ModelCacheBytes = 0 // default budget
	for _, workers := range []int{1, 4} {
		cfg.Workers = workers
		for pass := 0; pass < 2; pass++ { // second pass serves fits from cache
			cached, err := Sweep(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameRecords(t, uncached, cached, "model-cached-vs-refit")
		}
	}
	s := c.ModelCache().Stats()
	if s.Hits == 0 {
		t.Fatalf("repeated sweeps never hit the trained-model cache: %+v", s)
	}
	// 2 classifier models x 2 ts x 2 hs distinct tasks, fitted exactly once
	// across all cached sweeps.
	if s.Misses != 8 {
		t.Fatalf("misses = %d, want one fit per distinct training task (8): %+v", s.Misses, s)
	}
}

// TestTrainedModelCacheReusesFits: two Forecast calls for one training
// task must share a single fit, and the second call must still surface the
// fit's importances on the model value.
func TestTrainedModelCacheReusesFits(t *testing.T) {
	c := testContext(t, 80, 8, 38)
	c.ForestTrees = 4
	m1, m2 := NewRFF1(), NewRFF1()
	a, err := m1.Forecast(c, BeHot, 28, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m2.Forecast(c, BeHot, 28, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sector %d: %v != %v across cache hit", i, a[i], b[i])
		}
	}
	s := c.ModelCache().Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("stats = %+v, want one fit shared by two forecasts", s)
	}
	if m2.LastImportances == nil {
		t.Fatal("cache-served forecast did not surface importances")
	}
}

type sizedBlob int64

func (b sizedBlob) Bytes() int64 { return int64(b) }

// TestKeyFieldsDistinguishTasks: each fitKey field is part of the task
// identity — notably h, the Eq. 7 label gap, at a fixed cutoff.
func TestKeyFieldsDistinguishTasks(t *testing.T) {
	c := bytelru.New[fitKey, sizedBlob](1 << 20)
	fits := 0
	variants := []fitKey{
		{model: "rf", target: BeHot, cutoff: 50, h: 1, w: 7},
		{model: "rf|unbal", target: BeHot, cutoff: 50, h: 1, w: 7},
		{model: "rf", target: BecomeHot, cutoff: 50, h: 1, w: 7},
		{model: "rf", target: BeHot, cutoff: 51, h: 1, w: 7},
		{model: "rf", target: BeHot, cutoff: 50, h: 2, w: 7},
		{model: "rf", target: BeHot, cutoff: 50, h: 1, w: 14},
	}
	for _, k := range variants {
		if _, err := c.GetOrBuild(k, func() (sizedBlob, error) { fits++; return 10, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if fits != len(variants) {
		t.Fatalf("fits = %d, want %d distinct tasks", fits, len(variants))
	}
}

// TestFitFingerprintSeparatesVariants: the ablation configurations — same
// paper name, different fit — must never collide in the cache, and the
// sector-subset variant must opt out entirely.
func TestFitFingerprintSeparatesVariants(t *testing.T) {
	c := testContext(t, 60, 6, 39)
	balanced := NewTreeModel()
	unbalanced := NewTreeModel()
	unbalanced.Unbalanced = true
	fpB, okB := balanced.fitFingerprint(c)
	fpU, okU := unbalanced.fitFingerprint(c)
	if !okB || !okU || fpB == fpU {
		t.Fatalf("balanced/unbalanced fingerprints collide: %q vs %q", fpB, fpU)
	}
	subset := NewRFF1()
	subset.SectorSubset = []int{1, 2, 3}
	if _, ok := subset.fitFingerprint(c); ok {
		t.Fatal("sector-subset model must not be cacheable")
	}
	gbtA, gbtB := NewGBT(), NewGBT()
	gbtB.Config.Rounds++
	fpA, _ := gbtA.fitFingerprint(c)
	fpC, _ := gbtB.fitFingerprint(c)
	if fpA == fpC {
		t.Fatal("GBT config change not reflected in fingerprint")
	}
	// Context knobs that shape the fit are part of the key too.
	fp1, _ := balanced.fitFingerprint(c)
	c.ForestTrees++
	fp2, _ := balanced.fitFingerprint(c)
	if fp1 == fp2 {
		t.Fatal("ForestTrees change not reflected in fingerprint")
	}
}

// TestFitServesBeyondEvaluationGrid: Fit at the edge of the data — where
// CheckTask would reject the point because t+h lies outside the grid — is
// the serving case and must work, as must predicting off the final days.
func TestFitServesBeyondEvaluationGrid(t *testing.T) {
	c := testContext(t, 80, 8, 40)
	c.ForestTrees = 4
	lastT := c.Days() - 1
	const h, w = 5, 3
	if err := c.CheckTask(lastT, h, w); err == nil {
		t.Fatal("test premise broken: CheckTask should reject the edge fit day")
	}
	m := NewRFF1()
	tr, err := m.Fit(c, BeHot, lastT, h, w)
	if err != nil {
		t.Fatalf("edge fit: %v", err)
	}
	scores, err := tr.Predict(c, c.Days(), w) // window ending after the final day
	if err != nil {
		t.Fatalf("edge predict: %v", err)
	}
	if len(scores) != c.Sectors() {
		t.Fatalf("scores = %d, want %d", len(scores), c.Sectors())
	}
	// Fit past the label boundary must still fail.
	if _, err := m.Fit(c, BeHot, c.Days(), h, w); err == nil {
		t.Fatal("fit without labels accepted")
	}
	// Predict needs its window inside the grid.
	if _, err := tr.Predict(c, c.Days()+1, w); err == nil {
		t.Fatal("prediction beyond the grid accepted")
	}
}

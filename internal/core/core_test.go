package core

import (
	"bytes"
	"math"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/forecast"
	"repro/internal/mathx"
	"repro/internal/registry"
	"repro/internal/simnet"
)

func smallPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := NewPipeline(Config{Seed: 3, Sectors: 150, Weeks: 8, TrainDays: 3, ForestTrees: 6})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPipeline(t *testing.T) {
	p := smallPipeline(t)
	if p.Sectors() < 100 {
		t.Fatalf("sectors = %d", p.Sectors())
	}
	if p.Days() != 56 {
		t.Fatalf("days = %d, want 56", p.Days())
	}
	if p.Grid().Weeks != 8 {
		t.Fatal("grid weeks wrong")
	}
}

func TestNewModelAllKinds(t *testing.T) {
	for _, kind := range []ModelKind{Random, Persist, Average, Trend, Tree, RFR, RFF1, RFF2, GBTF1} {
		m, err := NewModel(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if m.Name() != string(kind) {
			t.Fatalf("model %s reports name %s", kind, m.Name())
		}
	}
	if _, err := NewModel("bogus"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestPipelineForecast(t *testing.T) {
	p := smallPipeline(t)
	scores, err := p.Forecast(Average, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != p.Sectors() {
		t.Fatal("score count mismatch")
	}
}

func TestPipelineEvaluate(t *testing.T) {
	p := smallPipeline(t)
	res, err := p.Evaluate(forecast.BeHot, []int{30}, []int{1}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 8 {
		t.Fatalf("records = %d, want 8 models", len(res.Records))
	}
	for _, rec := range res.Records {
		if rec.Positives > 0 && math.IsNaN(rec.Lift) {
			t.Fatalf("record %+v has NaN lift with positives", rec)
		}
	}
}

// TestPipelineEvaluateStream: the streaming evaluation must deliver the
// exact record sequence Evaluate collects, and honour the configured
// feature-cache budget.
func TestPipelineEvaluateStream(t *testing.T) {
	p := smallPipeline(t)
	res, err := p.Evaluate(forecast.BeHot, []int{30}, []int{1, 3}, 7)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []forecast.Record
	if err := p.EvaluateStream(forecast.BeHot, []int{30}, []int{1, 3}, 7, func(rec forecast.Record) error {
		streamed = append(streamed, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Records) {
		t.Fatalf("streamed %d records, Evaluate collected %d", len(streamed), len(res.Records))
	}
	for i := range streamed {
		a, b := streamed[i], res.Records[i]
		if a.Model != b.Model || a.T != b.T || a.H != b.H || a.W != b.W {
			t.Fatalf("record %d identity differs:\n%+v\n%+v", i, a, b)
		}
		if !eqNaN(a.Psi, b.Psi) || !eqNaN(a.Lift, b.Lift) {
			t.Fatalf("record %d values differ:\n%+v\n%+v", i, a, b)
		}
	}
	if cache := p.Ctx.FeatureCache(); cache == nil || cache.Stats().Hits == 0 {
		t.Fatal("pipeline sweeps should run against the shared feature cache")
	}
}

// TestPipelineCacheDisabled: a negative Config.CacheBytes threads through
// to a nil feature cache.
func TestPipelineCacheDisabled(t *testing.T) {
	p, err := NewPipeline(Config{Seed: 3, Sectors: 60, Weeks: 6, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Ctx.FeatureCache() != nil {
		t.Fatal("negative CacheBytes should disable the feature cache")
	}
}

func eqNaN(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5}
	top := TopK(scores, 2)
	if len(top) != 2 || top[0] != 1 || top[1] != 2 {
		t.Fatalf("TopK = %v", top)
	}
	if got := TopK(scores, 10); len(got) != 3 {
		t.Fatal("TopK should clamp to length")
	}
	for _, k := range []int{0, -1, math.MinInt} {
		if got := TopK(scores, k); len(got) != 0 {
			t.Fatalf("TopK(k=%d) = %v, want an empty ranking", k, got)
		}
	}
	if got := TopK(nil, 3); len(got) != 0 {
		t.Fatalf("TopK over no scores = %v", got)
	}
}

// TestTopKIntoMatchesArgsort: the bounded selection returns exactly the
// first k of the full descending argsort — ties by index, ±0 tied, NaNs
// last — for every k, and reuses dst whatever it held.
func TestTopKIntoMatchesArgsort(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		1, -1, 0.5, 0.5, 2, 1e-300, -1e300}
	for trial := 0; trial < 300; trial++ {
		n := rng.IntN(40)
		scores := make([]float64, n)
		for i := range scores {
			if rng.IntN(3) == 0 {
				scores[i] = rng.NormFloat64()
			} else {
				scores[i] = pool[rng.IntN(len(pool))]
			}
		}
		order := mathx.ArgsortDesc(scores)
		for k := -1; k <= n+2; k++ {
			want := order[:max(0, min(k, n))]
			stale := make([]int, n+3)
			for i := range stale {
				stale[i] = -7
			}
			for name, dst := range map[string][]int{
				"nil": nil, "stale": stale, "short": stale[:0:max(0, k-1)],
			} {
				got := TopKInto(dst, scores, k)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d, n=%d, k=%d, dst %s: TopKInto = %v, want %v (scores %v)",
						trial, n, k, name, got, want, scores)
				}
				if name == "stale" && len(got) > 0 && &got[0] != &stale[0] {
					t.Fatalf("k=%d: TopKInto reallocated a dst of capacity %d", k, cap(dst))
				}
			}
		}
	}
	big := make([]float64, 600)
	for i := range big {
		big[i] = rng.Float64()
	}
	dst := make([]int, 0, 10)
	if allocs := testing.AllocsPerRun(10, func() { TopKInto(dst, big, 10) }); allocs != 0 {
		t.Fatalf("TopKInto with a large enough dst allocates %v times", allocs)
	}
}

// TestTopKDeterministicOnTies: the documented ordering contract — tied
// scores break by ascending sector index, NaNs rank last — so the
// operator-facing ranking never depends on sort internals or call order.
// Regression test for the contract the hotserve /forecast endpoint relies
// on.
func TestTopKDeterministicOnTies(t *testing.T) {
	nan := math.NaN()
	scores := []float64{0.5, 0.9, 0.5, nan, 0.9, 0.5, nan}
	want := []int{1, 4, 0, 2, 5, 3, 6}
	got := TopK(scores, len(scores))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopK = %v, want %v (ties by ascending index, NaNs last)", got, want)
		}
	}
	// Stability across calls: equal input, identical output.
	for trial := 0; trial < 5; trial++ {
		again := TopK(scores, len(scores))
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("trial %d: TopK not deterministic: %v vs %v", trial, again, got)
			}
		}
	}
	// All-tied input degenerates to sector-index order.
	flat := TopK([]float64{1, 1, 1, 1}, 3)
	for i, id := range []int{0, 1, 2} {
		if flat[i] != id {
			t.Fatalf("all-tied TopK = %v, want index order", flat)
		}
	}
}

// TestTrainSaveLoadPredict: the pipeline's train-once workflow — Train,
// SaveModel, LoadModel, Predict — round-trips bit-identically, including
// predictions at days after the fit day (the serving case).
func TestTrainSaveLoadPredict(t *testing.T) {
	p := smallPipeline(t)
	tr, err := p.Train(RFF1, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ModelName() != "RF-F1" || tr.Horizon() != 3 || tr.Window() != 7 || tr.Cutoff() != 27 {
		t.Fatalf("artifact identity = %s/%d/%d/%d", tr.ModelName(), tr.Horizon(), tr.Window(), tr.Cutoff())
	}
	path := t.TempDir() + "/rf.hotm"
	if err := p.SaveModel(path, tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := p.LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range []int{30, 33} {
		want, err := p.Predict(tr, day, 7)
		if err != nil {
			t.Fatal(err)
		}
		have, err := p.Predict(loaded, day, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("day %d sector %d: %v != %v after save/load", day, i, want[i], have[i])
			}
		}
	}
	// Train through the cache: an equal task is served without a refit.
	again, err := p.Train(RFF1, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if again != tr {
		t.Fatal("repeated Train did not serve the cached artifact")
	}
	if _, err := p.Train("bogus", forecast.BeHot, 30, 3, 7); err == nil {
		t.Fatal("unknown model kind accepted")
	}
}

// TestPipelineModelCacheDisabled: a negative Config.ModelCacheBytes
// threads through to a nil trained-model cache.
func TestPipelineModelCacheDisabled(t *testing.T) {
	p, err := NewPipeline(Config{Seed: 3, Sectors: 60, Weeks: 6, ModelCacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Ctx.ModelCache() != nil {
		t.Fatal("negative ModelCacheBytes should disable the trained-model cache")
	}
}

// TestPipelineRegistry: the Publish/Registry accessors — attach a registry,
// publish a trained artifact, reload it and predict bit-identically.
func TestPipelineRegistry(t *testing.T) {
	p := smallPipeline(t)
	tr, err := p.Train(Average, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Publish(tr); err == nil {
		t.Fatal("publish without a registry accepted")
	}
	reg, err := registry.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachRegistry(reg)
	if p.Registry() != reg {
		t.Fatal("registry accessor lost the handle")
	}
	v, err := p.Publish(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := reg.LoadLatest(registry.KeyFor(tr))
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Predict(tr, 31, 7)
	if err != nil {
		t.Fatal(err)
	}
	have, err := p.Predict(got, 31, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("sector %d differs after publish round trip (version %d)", i, v.ID)
		}
	}
}

// TestPipelineRejectsForeignArtifact: loading or predicting with an
// artifact trained on a different dataset fails loudly on the fingerprint.
func TestPipelineRejectsForeignArtifact(t *testing.T) {
	p := smallPipeline(t)
	other, err := NewPipeline(Config{Seed: 9, Sectors: 150, Weeks: 8, TrainDays: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := other.Train(Average, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Predict(tr, 31, 7); err == nil ||
		!strings.Contains(err.Error(), "different dataset") {
		t.Fatalf("foreign artifact predicted (err=%v)", err)
	}
	path := filepath.Join(t.TempDir(), "foreign.hotm")
	if err := other.SaveModel(path, tr); err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadModel(path); err == nil ||
		!strings.Contains(err.Error(), "different dataset") {
		t.Fatalf("foreign artifact loaded (err=%v)", err)
	}
	reg, err := registry.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachRegistry(reg)
	if _, err := p.Publish(tr); err == nil ||
		!strings.Contains(err.Error(), "different dataset") {
		t.Fatalf("foreign artifact published (err=%v)", err)
	}
}

// TestDatasetFingerprintSurvivesSaveLoad: a dataset written to disk and
// read back fingerprints like the original, so an artifact trained before
// the round trip still passes CheckArtifact after it.
func TestDatasetFingerprintSurvivesSaveLoad(t *testing.T) {
	gen := simnet.DefaultConfig()
	gen.Seed, gen.Sectors, gen.Weeks = 3, 150, 8
	ds, err := simnet.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := simnet.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TrainDays: 3}
	orig, err := FromDataset(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := FromDataset(loaded, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := orig.Ctx.DatasetFingerprint(), again.Ctx.DatasetFingerprint(); a != b {
		t.Fatalf("fingerprint %016x before save, %016x after load", a, b)
	}
	tr, err := orig.Train(Average, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := again.Ctx.CheckArtifact(tr); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/forecast"
	"repro/internal/impute"
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

func TestPipelineWithImputation(t *testing.T) {
	if testing.Short() {
		t.Skip("imputation training is slow")
	}
	icfg := impute.DefaultConfig()
	icfg.Depth = 2
	icfg.Epochs = 2
	icfg.BatchSize = 16
	p, err := NewPipeline(Config{Seed: 4, Sectors: 40, Weeks: 4, Impute: true,
		ImputeConfig: &icfg, TrainDays: 2, ForestTrees: 4})
	if err != nil {
		t.Fatal(err)
	}
	if frac := p.Dataset.K.MissingFraction(); frac != 0 {
		t.Fatalf("imputation left %.3f missing", frac)
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

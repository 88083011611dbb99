package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/forecast"
	"repro/internal/mltree"
	"repro/internal/registry"
	"repro/internal/score"
	"repro/internal/simnet"
)

// The published fixture: every artifact is fitted at day fitDay for
// horizon h and window w over the paper's 18-week observation window.
const (
	fitDay  = 100
	horizon = 7
	window  = 7
	weeks   = 18
)

// fixtureSpecs are the four published artifacts: the baseline path and
// every flat kernel (float descent for the lone tree, binned descent for
// the forest and the boosted ensemble).
var fixtureSpecs = []struct {
	kind   core.ModelKind
	target forecast.Target
}{
	{core.Average, forecast.BeHot},
	{core.Tree, forecast.BeHot},
	{core.RFF1, forecast.BeHot},
	{core.GBTF1, forecast.BecomeHot},
}

// dataset is a generated dataset on disk plus hotperf's own pipeline
// over the same data.
type dataset struct {
	path string
	p    *core.Pipeline
}

// makeDataset generates the seeded dataset, saves it for hotserve and
// prepares hotperf's pipeline on it. The pipeline trains with the
// histogram engine (so ensembles descend on bin codes) and without the
// trained-model cache (every fit is a real fit).
func makeDataset(o *options, sectors int) (*dataset, error) {
	cfg := simnet.DefaultConfig()
	cfg.Seed, cfg.Sectors, cfg.Weeks = o.seed, sectors, weeks
	ds, err := simnet.Generate(cfg)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(o.work, fmt.Sprintf("dataset-%d.gob", sectors))
	if err := ds.SaveFile(path); err != nil {
		return nil, err
	}
	p, err := core.FromDataset(ds, core.Config{Seed: o.seed, CacheBytes: 64 << 20, ModelCacheBytes: -1,
		SplitAlgo: mltree.SplitHist})
	if err != nil {
		return nil, err
	}
	return &dataset{path: path, p: p}, nil
}

// fixture is a dataset with the four artifacts published to a registry.
type fixture struct {
	*dataset
	regDir string
	reg    *registry.Registry
	keys   map[string]registry.TaskKey // by model name
}

// buildFixture trains and publishes the fixture in-process, recording a
// span per quantization, fit and publish.
func buildFixture(d *dataset, o *options, tr *tracer) (*fixture, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("registry-%d", d.p.Sectors()))
	reg, err := registry.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	d.p.AttachRegistry(reg)
	// Quantize both training matrices first, so the bin spans stand apart
	// from the fits that then reuse them.
	for _, ex := range []features.Extractor{features.Raw{}, features.Percentiles{}} {
		id := tr.start("mltree.bin/"+ex.Name(), -1, -1)
		_, err := d.p.Ctx.BinnedTrainingMatrix(ex, fitDay, horizon, window)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	fx := &fixture{dataset: d, regDir: dir, reg: reg, keys: map[string]registry.TaskKey{}}
	for _, s := range fixtureSpecs {
		id := tr.start("mltree.fit/"+string(s.kind), -1, -1)
		art, err := d.p.Train(s.kind, s.target, fitDay, horizon, window)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.start("registry.publish/"+string(s.kind), -1, -1)
		_, err = d.p.Publish(art)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		fx.keys[string(s.kind)] = registry.KeyFor(art)
	}
	return fx, nil
}

// latest is the newest day of the data: the serving default for t.
func (d *dataset) latest() int { return d.p.Days() - 1 }

// selector renders the query parameters that pick one fixture artifact.
func selector(model string) string {
	target := "hot"
	for _, s := range fixtureSpecs {
		if string(s.kind) == model && s.target == forecast.BecomeHot {
			target = "become"
		}
	}
	return fmt.Sprintf("model=%s&target=%s&h=%d&w=%d", model, target, horizon, window)
}

// models lists the fixture's model names in publish order.
func models() []string {
	out := make([]string, len(fixtureSpecs))
	for i, s := range fixtureSpecs {
		out[i] = string(s.kind)
	}
	return out
}

// sectorScore is one ranking entry of a hotserve response.
type sectorScore struct {
	Sector int     `json:"sector"`
	Score  float64 `json:"score"`
}

// expect recomputes a ranking in-process from the published artifact
// version: core.TopK over Trained.Predict on hotperf's pipeline.
func (fx *fixture) expect(model string, version, t, k int) ([]sectorScore, error) {
	v, ok := fx.reg.Get(fx.keys[model], version)
	if !ok {
		return nil, fmt.Errorf("registry has no version %d of %s", version, model)
	}
	art, err := fx.reg.Load(v)
	if err != nil {
		return nil, err
	}
	scores, err := fx.p.Predict(art, t, art.Window())
	if err != nil {
		return nil, err
	}
	top := core.TopK(scores, k)
	out := make([]sectorScore, len(top))
	for i, id := range top {
		out[i] = sectorScore{Sector: id, Score: scores[id]}
	}
	return out, nil
}

// compareRanking reports the first difference between a served ranking and
// the expected one; sector IDs and scores must match exactly.
func compareRanking(what string, got, want []sectorScore) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: rank %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
	return nil
}

// extractorOf returns the feature representation a model predicts from
// (nil for the baselines, which read the daily scores directly).
func extractorOf(model string) features.Extractor {
	m, err := core.NewModel(core.ModelKind(model))
	if err != nil {
		return nil
	}
	switch m := m.(type) {
	case *forecast.ClassifierModel:
		return m.Extractor
	case *forecast.GBTModel:
		return m.Extractor
	}
	return nil
}

// query is one forecast of a workload's stream.
type query struct {
	model string
	t, k  int
}

// replay sends queries through the public calls in-process: per query a
// root span holding the feature fetch, Trained.Predict and core.TopK.
// Predict runs right after its matrix was fetched, so its own fetch hits
// the cache and its span is the descent.
func (fx *fixture) replay(tr *tracer, qs []query) error {
	arts := map[string]forecast.Trained{}
	for model, key := range fx.keys {
		art, _, err := fx.reg.LoadLatest(key)
		if err != nil {
			return err
		}
		arts[model] = art
	}
	for i, q := range qs {
		root := tr.start("replay.query", -1, i)
		if ex := extractorOf(q.model); ex != nil {
			id := tr.start("forecast.FeatureMatrix/"+q.model, root, i)
			_, err := fx.p.Ctx.FeatureMatrix(ex, q.t, window)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		id := tr.start("forecast.Predict/"+q.model, root, i)
		scores, err := arts[q.model].Predict(fx.p.Ctx, q.t, window)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.start("core.TopK", root, i)
		core.TopK(scores, q.k)
		tr.end(id)
		tr.end(root)
	}
	return nil
}

// probeLayers times, in-process, the layers a request never reaches: cold
// feature builds on an empty cache, registry open and artifact load, and
// hotserve's set-up chain step by step.
func (fx *fixture) probeLayers(tr *tracer, seed uint64) error {
	d := fx.p.Dataset
	ctx, err := forecast.NewContext(d.K, d.Grid.Calendar(), fx.p.Scores, seed)
	if err != nil {
		return err
	}
	for day := 0; day < 3; day++ {
		for _, ex := range []features.Extractor{features.Raw{}, features.Percentiles{}} {
			id := tr.start("features.build/"+ex.Name(), -1, -1)
			_, err := ctx.FeatureMatrix(ex, fx.latest()-day, window)
			tr.end(id)
			if err != nil {
				return err
			}
		}
	}

	root := tr.start("setup.registry", -1, -1)
	id := tr.start("registry.Open", root, -1)
	reg, err := registry.Open(fx.regDir, 0)
	tr.end(id)
	if err != nil {
		return err
	}
	for _, task := range reg.List() {
		id := tr.start("registry.LoadLatest/"+task.Key.Model, root, -1)
		_, _, err := reg.LoadLatest(task.Key)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	tr.end(root)

	id = tr.start("setup.load", -1, -1)
	ds, err := simnet.LoadFile(fx.path)
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.start("setup.score", -1, -1)
	sub := ds.SelectSectors(score.FilterSectors(ds.K, 0.5))
	set := score.Compute(sub.K, score.DefaultWeighting())
	tr.end(id)
	id = tr.start("setup.context", -1, -1)
	_, err = forecast.NewContext(sub.K, sub.Grid.Calendar(), set, seed)
	tr.end(id)
	return err
}

// spanLayers derives the span-based per-layer metrics.
func spanLayers(res *result, tr *tracer, sectors int) {
	msOf := func(prefix string) float64 { return median(tr.durations(prefix)) * 1e3 }
	for _, m := range models() {
		res.set("forecast.predict_ms."+m, "ms", msOf("forecast.Predict/"+m))
		if m == string(core.Average) {
			continue
		}
		res.set("mltree.rows_per_s."+m, "sector-rows/s", float64(sectors)/median(tr.durations("forecast.Predict/"+m)))
		res.set("mltree.fit_s."+m, "s", median(tr.durations("mltree.fit/"+m)))
	}
	for _, ex := range []string{"raw", "percentiles"} {
		res.set("mltree.bin_ms."+ex, "ms", msOf("mltree.bin/"+ex))
		res.set("features.build_ms."+ex, "ms", msOf("features.build/"+ex))
	}
	res.set("core.topk_ms", "ms", msOf("core.TopK"))
	res.set("registry.publish_ms", "ms", msOf("registry.publish/"))
	res.set("registry.load_ms", "ms", msOf("registry.LoadLatest/"))
	res.set("setup.load_s", "s", median(tr.durations("setup.load")))
	res.set("setup.score_s", "s", median(tr.durations("setup.score")))
	res.set("setup.context_s", "s", median(tr.durations("setup.context")))
	res.set("setup.registry_s", "s", median(tr.durations("setup.registry")))
}

// span is one timed call hotperf made into a layer. Spans of one
// replayed query share its request ID.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Req    int    `json:"req"` // replayed query index; -1 outside the replay
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // duration minus the part its children cover
}

// tracer keeps spans in memory until write. It is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Req: req,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.t0)) }

// durations returns, in seconds, every finished span whose name starts
// with prefix.
func (t *tracer) durations(prefix string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// write computes self times and writes every span as JSON.
func (t *tracer) write(path string) error {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	return writeJSON(path, struct {
		Spans []span `json:"spans"`
	}{t.spans})
}

// median of xs (0 when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

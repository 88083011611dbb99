// Package core is the public face of the reproduction: a Pipeline that
// takes a cellular KPI dataset from raw measurements to hot-spot forecasts,
// wiring together the substrates exactly as the paper's methodology
// prescribes:
//
//	generate (or load) KPIs  ->  filter sectors with >50% missing weeks
//	->  score chain S', S^h/d/w, Y
//	->  forecast with baselines and tree-based models  ->  lift evaluation
//
// Example:
//
//	p, err := core.NewPipeline(core.Config{Sectors: 400, Seed: 7})
//	...
//	scores, err := p.Forecast(core.RFF1, forecast.BeHot, 60, 5, 7)
//	report, err := p.Evaluate(forecast.BeHot, []int{60, 65}, []int{1, 7}, 7)
package core

import (
	"fmt"
	"math"

	"repro/internal/forecast"
	"repro/internal/mltree"
	"repro/internal/registry"
	"repro/internal/score"
	"repro/internal/simnet"
	"repro/internal/timegrid"
)

// ModelKind selects one of the paper's eight models.
type ModelKind string

// The Table III model set, plus the GBT extension (this repository's
// implementation of the higher-capacity learner the paper's conclusion
// points to; not part of the paper's own comparison).
const (
	Random  ModelKind = "Random"
	Persist ModelKind = "Persist"
	Average ModelKind = "Average"
	Trend   ModelKind = "Trend"
	Tree    ModelKind = "Tree"
	RFR     ModelKind = "RF-R"
	RFF1    ModelKind = "RF-F1"
	RFF2    ModelKind = "RF-F2"
	GBTF1   ModelKind = "GBT-F1"
)

// NewModel instantiates a model by kind.
func NewModel(kind ModelKind) (forecast.Model, error) {
	switch kind {
	case Random:
		return forecast.RandomModel{}, nil
	case Persist:
		return forecast.PersistModel{}, nil
	case Average:
		return forecast.AverageModel{}, nil
	case Trend:
		return forecast.TrendModel{}, nil
	case Tree:
		return forecast.NewTreeModel(), nil
	case RFR:
		return forecast.NewRFR(), nil
	case RFF1:
		return forecast.NewRFF1(), nil
	case RFF2:
		return forecast.NewRFF2(), nil
	case GBTF1:
		return forecast.NewGBT(), nil
	default:
		return nil, fmt.Errorf("core: unknown model %q", kind)
	}
}

// Config parameterises a Pipeline built from synthetic data.
type Config struct {
	// Seed drives the generator and every stochastic model.
	Seed uint64
	// Sectors is the approximate network size.
	Sectors int
	// Weeks is the observation window (default: the paper's 18).
	Weeks int
	// TrainDays and ForestTrees tune the classifier models.
	TrainDays   int
	ForestTrees int
	// CacheBytes bounds the shared feature-matrix cache
	// (0 = forecast.DefaultCacheBytes, negative disables).
	CacheBytes int64
	// ModelCacheBytes bounds the shared trained-model cache
	// (0 = forecast.DefaultModelCacheBytes, negative disables).
	ModelCacheBytes int64
	// SplitAlgo once selected the tree-training split search.
	//
	// Deprecated: ignored; hist is the only engine.
	SplitAlgo mltree.SplitAlgo
}

// Pipeline is a prepared end-to-end hot-spot forecasting system.
type Pipeline struct {
	Dataset *simnet.Dataset
	Scores  *score.Set
	Ctx     *forecast.Context
	// Discarded is the number of sectors dropped by the missing-data
	// filter.
	Discarded int

	reg *registry.Registry
}

// NewPipeline generates a synthetic network and prepares the full chain.
func NewPipeline(cfg Config) (*Pipeline, error) {
	ds, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	return FromDataset(ds, cfg)
}

// Generate generates the synthetic network NewPipeline prepares: the
// simnet default configuration with cfg's seed, sector count and weeks
// where they are set.
func Generate(cfg Config) (*simnet.Dataset, error) {
	gen := simnet.DefaultConfig()
	if cfg.Seed != 0 {
		gen.Seed = cfg.Seed
	}
	if cfg.Sectors != 0 {
		gen.Sectors = cfg.Sectors
	}
	if cfg.Weeks != 0 {
		gen.Weeks = cfg.Weeks
	}
	return simnet.Generate(gen)
}

// FromDataset prepares a pipeline from an existing dataset (e.g. loaded
// from disk via simnet.LoadFile).
//
// One per-sector pass over K (score.Weighting.FilterHourly) applies the
// missing-data filter and scores the survivors' hourly S'. The filter
// then restricts the caller's ds in place (simnet.Dataset.SelectSectors)
// with no rows moved: K records the survivors as a row index, so no
// second copy of K is made and a K mapped from its file (simnet.LoadFile)
// is never written. ds holds the filtered sectors the pipeline serves
// from (Pipeline.Dataset). Callers must not use ds as the unfiltered
// dataset afterwards; save it or read its shape first, or reload it.
func FromDataset(ds *simnet.Dataset, cfg Config) (*Pipeline, error) {
	w := score.DefaultWeighting()
	keep, sh := w.FilterHourly(ds.K, 0.5)
	discarded := ds.N() - len(keep)
	ds.SelectSectors(keep)
	set := score.FromHourly(sh, w)
	ctx, err := forecast.NewContext(ds.K, ds.Grid.Calendar(), set, genSeed(cfg))
	if err != nil {
		return nil, err
	}
	if cfg.TrainDays > 0 {
		ctx.TrainDays = cfg.TrainDays
	}
	if cfg.ForestTrees > 0 {
		ctx.ForestTrees = cfg.ForestTrees
	}
	ctx.CacheBytes = cfg.CacheBytes
	ctx.ModelCacheBytes = cfg.ModelCacheBytes
	return &Pipeline{Dataset: ds, Scores: set, Ctx: ctx, Discarded: discarded}, nil
}

func genSeed(cfg Config) uint64 {
	if cfg.Seed != 0 {
		return cfg.Seed
	}
	return 1
}

// Forecast runs one model at forecast day t, horizon h, window w and
// returns per-sector ranking scores for day t+h.
func (p *Pipeline) Forecast(kind ModelKind, target forecast.Target, t, h, w int) ([]float64, error) {
	m, err := NewModel(kind)
	if err != nil {
		return nil, err
	}
	return m.Forecast(p.Ctx, target, t, h, w)
}

// Train fits one model for horizon h on the data available at day t
// (labels through t, w-day feature windows) and returns the immutable
// trained artifact, served through the pipeline's trained-model cache.
// The artifact predicts any later day via Predict, serializes with
// SaveModel, and serves from cmd/hotserve.
func (p *Pipeline) Train(kind ModelKind, target forecast.Target, t, h, w int) (forecast.Trained, error) {
	m, err := NewModel(kind)
	if err != nil {
		return nil, err
	}
	return p.Ctx.TrainedModel(m, target, t, h, w)
}

// Predict scores every sector for day t+tr.Horizon() from the w-day
// window ending at day t of this pipeline's data. The artifact's dataset
// fingerprint must match this pipeline's data — a model trained on a
// different network fails here instead of serving silently wrong rankings.
func (p *Pipeline) Predict(tr forecast.Trained, t, w int) ([]float64, error) {
	return p.PredictInto(tr, t, w, nil)
}

// PredictInto is Predict writing into dst (see forecast.Trained's
// PredictInto for the buffer contract), after the same fingerprint check.
func (p *Pipeline) PredictInto(tr forecast.Trained, t, w int, dst []float64) ([]float64, error) {
	if err := p.CheckArtifact(tr); err != nil {
		return nil, err
	}
	return tr.PredictInto(p.Ctx, t, w, dst)
}

// CheckArtifact verifies tr was trained on this pipeline's dataset, by
// fingerprint (artifacts from the pre-fingerprint envelope pass
// unchecked).
func (p *Pipeline) CheckArtifact(tr forecast.Trained) error {
	return p.Ctx.CheckArtifact(tr)
}

// SaveModel writes a trained artifact to path in the versioned binary
// artifact format.
func (p *Pipeline) SaveModel(path string, tr forecast.Trained) error {
	return forecast.SaveModel(path, tr)
}

// LoadModel reads a trained artifact written by SaveModel (or
// hotforecast -model-out), ready to Predict against this pipeline. Loading
// fails loudly when the artifact's dataset fingerprint does not match this
// pipeline's data.
func (p *Pipeline) LoadModel(path string) (forecast.Trained, error) {
	tr, err := forecast.LoadModelFile(path)
	if err != nil {
		return nil, err
	}
	if err := p.CheckArtifact(tr); err != nil {
		return nil, fmt.Errorf("core: %s: %w", path, err)
	}
	return tr, nil
}

// AttachRegistry connects a model registry to this pipeline: Publish
// routes through it, and serving tools resolve artifacts from it.
func (p *Pipeline) AttachRegistry(r *registry.Registry) { p.reg = r }

// Registry returns the attached model registry (nil when none is
// attached).
func (p *Pipeline) Registry() *registry.Registry { return p.reg }

// Publish durably stores tr as the new latest version of its task in the
// attached registry, after verifying the artifact matches this pipeline's
// dataset.
func (p *Pipeline) Publish(tr forecast.Trained) (registry.Version, error) {
	if p.reg == nil {
		return registry.Version{}, fmt.Errorf("core: no registry attached (AttachRegistry first)")
	}
	if err := p.CheckArtifact(tr); err != nil {
		return registry.Version{}, err
	}
	return p.reg.Publish(tr)
}

// Evaluate sweeps all eight models over the given grid and returns the
// result for aggregation.
func (p *Pipeline) Evaluate(target forecast.Target, ts, hs []int, w int) (*forecast.Result, error) {
	return forecast.Sweep(p.Ctx, p.sweepConfig(target, ts, hs, w))
}

// EvaluateStream sweeps all eight models over the given grid, handing each
// record to emit in deterministic grid order as its point completes —
// the non-buffering counterpart of Evaluate for huge grids or live
// emission (dashboards, CSV sinks).
func (p *Pipeline) EvaluateStream(target forecast.Target, ts, hs []int, w int, emit func(forecast.Record) error) error {
	return forecast.SweepStream(p.Ctx, p.sweepConfig(target, ts, hs, w), emit)
}

func (p *Pipeline) sweepConfig(target forecast.Target, ts, hs []int, w int) forecast.SweepConfig {
	return forecast.SweepConfig{
		Models:        forecast.AllModels(),
		Target:        target,
		Ts:            ts,
		Hs:            hs,
		Ws:            []int{w},
		RandomRepeats: 5,
	}
}

// TopK returns the k sector IDs with the highest forecast scores: the
// operator-facing ranking of sectors to inspect (and the /forecast
// response of cmd/hotserve). k is clamped to len(scores); k <= 0 yields an
// empty ranking.
//
// Ordering contract: scores descend; tied scores (−0 ties +0) break by
// ascending sector index; NaN scores rank after every other score
// (themselves index-ordered). The ranking is therefore fully deterministic
// and equals mathx.ArgsortDesc(scores)[:k] — two calls over equal scores
// return identical slices, regardless of how the scores were produced.
func TopK(scores []float64, k int) []int { return TopKInto(nil, scores, k) }

// TopKInto is TopK writing into dst: it returns dst[:k] when dst has the
// capacity (allocating nothing) and a fresh k-slice otherwise. It selects
// through a bounded k-heap, O(n log k), without sorting all n scores.
func TopKInto(dst []int, scores []float64, k int) []int {
	k = min(k, len(scores))
	if k <= 0 {
		return dst[:0]
	}
	if cap(dst) < k {
		dst = make([]int, k)
	}
	h := dst[:k]
	// h[:k] is a heap whose root ranks last, so the retained set's worst
	// member is the one a better score evicts.
	for i := range h {
		h[i] = i
		siftUp(h, scores, i)
	}
	for i := k; i < len(scores); i++ {
		if ranksBefore(scores, i, h[0]) {
			h[0] = i
			siftDown(h, scores, 0)
		}
	}
	// Heap sort: moving each successive worst to the back leaves h in
	// ranking order.
	for end := k - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], scores, 0)
	}
	return h
}

// ranksBefore reports whether sector a ranks ahead of sector b under
// TopK's ordering contract.
func ranksBefore(scores []float64, a, b int) bool {
	sa, sb := scores[a], scores[b]
	switch na, nb := math.IsNaN(sa), math.IsNaN(sb); {
	case na != nb:
		return nb
	case !na && sa != sb:
		return sa > sb
	default:
		return a < b
	}
}

func siftUp(h []int, scores []float64, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !ranksBefore(scores, h[parent], h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func siftDown(h []int, scores []float64, i int) {
	for {
		worst := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && ranksBefore(scores, h[worst], h[c]) {
				worst = c
			}
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// Days returns the number of days in the pipeline's grid.
func (p *Pipeline) Days() int { return p.Ctx.Days() }

// Sectors returns the number of sectors after filtering.
func (p *Pipeline) Sectors() int { return p.Ctx.Sectors() }

// Grid exposes the time grid.
func (p *Pipeline) Grid() *timegrid.Grid { return p.Dataset.Grid }

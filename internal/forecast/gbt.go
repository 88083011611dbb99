package forecast

import (
	"fmt"

	"repro/internal/featcache"
	"repro/internal/features"
	"repro/internal/mltree"
)

// GBTModel is the repository's extension beyond the paper's Table III: a
// gradient-boosted-tree forecaster over the RF-F1 percentile features. The
// paper's conclusion points at higher-capacity learners for better
// long-horizon forecasts, and its related work applies gradient boosting to
// hot-spot prediction in data centres; GBT-F1 makes that comparison
// runnable here (see the ablation benches).
type GBTModel struct {
	// Extractor defaults to the percentile features.
	Extractor features.Extractor
	// Config defaults to mltree.DefaultGBTConfig.
	Config mltree.GBTConfig
}

// NewGBT returns a gradient-boosted model over percentile features.
func NewGBT() *GBTModel {
	return &GBTModel{Extractor: features.Percentiles{}, Config: mltree.DefaultGBTConfig()}
}

// Name implements Model.
func (m *GBTModel) Name() string { return "GBT-F1" }

// fitFingerprint implements cacheableModel, covering every boosting knob
// that shapes the fit (custom-configured GBT variants must not collide in
// the cache). Config.Seed is excluded: Fit derives the training seed from
// the context and task, overwriting it.
func (m *GBTModel) fitFingerprint(c *Context) (string, bool) {
	cfg := m.Config
	return fmt.Sprintf("GBT|ex=%s|r=%d|lr=%g|depth=%d|leaf=%d|sub=%g|days=%d",
		m.Extractor.Name(), cfg.Rounds, cfg.Shrinkage, cfg.MaxDepth, cfg.MinSamplesLeaf,
		cfg.SubsampleFraction, c.TrainDays), true
}

// Fit implements Model with the same Eq. 7 protocol as the paper's
// classifiers, over the shared feature-matrix cache; the boosted ensemble's
// flat compilation is captured in an immutable artifact.
func (m *GBTModel) Fit(c *Context, target Target, t, h, w int) (Trained, error) {
	tr, _, err := m.fitLearner(c, target, t, h, w)
	return tr, err
}

// fitLearner is Fit that also returns the walked ensemble the artifact's
// engine was flattened from (nil for a fallback artifact).
func (m *GBTModel) fitLearner(c *Context, target Target, t, h, w int) (Trained, walkedLearner, error) {
	if err := c.CheckFit(t, h, w); err != nil {
		return nil, nil, err
	}
	n := c.Sectors()
	y := c.Labels(target)
	meta := newMeta(c, m.Name(), target, t, h, w)
	trainSectors := make([]int, n)
	for i := range trainSectors {
		trainSectors[i] = i
	}
	labels, positives := trainingLabels(c, y, trainSectors, t)
	if positives == 0 || positives == len(labels) {
		return &baselineArtifact{meta, kindFallback}, nil, nil
	}
	cfg := m.Config
	cfg.Seed = c.Seed ^ uint64(t)<<24 ^ uint64(h)<<12 ^ uint64(w) ^ 0xb005
	// One quantization per training build serves all boosting rounds (and
	// any other model sharing it) via the cache.
	mat, err := c.BinnedTrainingMatrix(m.Extractor, t, h, w)
	if err != nil {
		return nil, nil, fmt.Errorf("forecast: building GBT training matrix: %w", err)
	}
	g, err := mltree.FitGBTBinned(mat.Bin, labels, mltree.BalancedWeights(labels), cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("forecast: fitting GBT: %w", err)
	}
	fg, cols, err := g.FlattenProjected()
	if err != nil {
		return nil, nil, fmt.Errorf("forecast: compiling GBT: %w", err)
	}
	return &classifierArtifact{artifactMeta: meta, kind: kindGBT, extractor: m.Extractor, width: mat.Width,
		cols: cols, colsKey: featcache.ColsKey(cols), engine: fg}, g, nil
}

// Forecast implements Model: the Fit+Predict shim, with fits served from
// the trained-model cache.
func (m *GBTModel) Forecast(c *Context, target Target, t, h, w int) ([]float64, error) {
	return fitPredict(m, c, target, t, h, w)
}

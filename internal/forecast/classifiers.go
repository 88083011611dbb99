package forecast

import (
	"fmt"
	"sync"

	"repro/internal/features"
	"repro/internal/mltree"
	"repro/internal/randx"
	"repro/internal/tensor"
)

// ClassifierModel wraps a tree learner over one of the paper's feature
// representations. It implements the Eq. 7 protocol: for a forecast at day
// t with horizon h, it trains on label days {t, t-1, ..., t-TrainDays+1}
// with feature windows ending h days before each label day, then predicts
// from the window ending at t.
type ClassifierModel struct {
	// ModelName is the paper's name (Tree, RF-R, RF-F1, RF-F2).
	ModelName string
	// Extractor produces the feature representation.
	Extractor features.Extractor
	// SingleTree selects the paper's Tree model (one CART with 80%
	// features per split and 2% weight stopping) instead of a forest.
	SingleTree bool
	// Unbalanced disables the paper's class-balanced sample weights
	// (ablation only; the paper always balances).
	Unbalanced bool
	// SectorSubset restricts training to the listed sectors (ablation of
	// the paper's spatially unconstrained design; nil = all sectors).
	// Predictions are still produced for every sector.
	SectorSubset []int
	// Importances of the last fitted model (nil until Forecast ran).
	// Concurrent sweeps share one model value per grid, so the write is
	// mutex-guarded; read it only after the Forecast (or sweep) returns.
	LastImportances []float64

	mu sync.Mutex
}

// NewTreeModel returns the paper's single-CART model over raw inputs.
func NewTreeModel() *ClassifierModel {
	return &ClassifierModel{ModelName: "Tree", Extractor: features.Raw{}, SingleTree: true}
}

// NewRFR returns the raw-input random forest (RF-R).
func NewRFR() *ClassifierModel {
	return &ClassifierModel{ModelName: "RF-R", Extractor: features.Raw{}}
}

// NewRFF1 returns the percentile-feature random forest (RF-F1).
func NewRFF1() *ClassifierModel {
	return &ClassifierModel{ModelName: "RF-F1", Extractor: features.Percentiles{}}
}

// NewRFF2 returns the hand-crafted-feature random forest (RF-F2).
func NewRFF2() *ClassifierModel {
	return &ClassifierModel{ModelName: "RF-F2", Extractor: features.HandCrafted{}}
}

// Name implements Model.
func (m *ClassifierModel) Name() string { return m.ModelName }

// setImportances records the last fit's importances. Sweep workers calling
// Forecast concurrently on the shared model race on the write otherwise.
func (m *ClassifierModel) setImportances(imp []float64) {
	m.mu.Lock()
	m.LastImportances = imp
	m.mu.Unlock()
}

// trainingLabels assembles the Eq. 7 training labels: TrainDays stacked
// label days t, t-1, ..., ordered day-major then sector, matching the row
// order of the training matrix.
func trainingLabels(c *Context, y *tensor.Matrix, trainSectors []int, t int) (labels []int, positives int) {
	labels = make([]int, 0, c.TrainDays*len(trainSectors))
	for d := 0; d < c.TrainDays; d++ {
		labelDay := t - d
		for _, i := range trainSectors {
			cls := 0
			if y.At(i, labelDay) > 0 {
				cls = 1
				positives++
			}
			labels = append(labels, cls)
		}
	}
	return labels, positives
}

// trainingInstances assembles the Eq. 7 training rows — TrainDays blocks,
// day-major then sector, feature windows ending at cutoff-d where cutoff is
// t-h (h days before each label day) — the one place the row-ordering
// convention lives (trainingLabels must match it).
func trainingInstances(c *Context, trainSectors []int, cutoff int) (sectors, ends []int) {
	sectors = make([]int, 0, c.TrainDays*len(trainSectors))
	ends = make([]int, 0, c.TrainDays*len(trainSectors))
	for d := 0; d < c.TrainDays; d++ {
		for _, i := range trainSectors {
			sectors = append(sectors, i)
			ends = append(ends, cutoff-d)
		}
	}
	return sectors, ends
}

// fitFingerprint implements cacheableModel: the trained-model cache key's
// model component, covering every knob that shapes the fit. Sector-subset
// ablations opt out — their bespoke training rows are not captured by the
// (fingerprint, target, cutoff, h, w) key.
func (m *ClassifierModel) fitFingerprint(c *Context) (string, bool) {
	if m.SectorSubset != nil {
		return "", false
	}
	return fmt.Sprintf("%s|ex=%s|single=%t|unbal=%t|trees=%d|days=%d",
		m.ModelName, m.Extractor.Name(), m.SingleTree, m.Unbalanced, c.ForestTrees, c.TrainDays), true
}

// Fit implements Model: train per Eq. 7 and capture the learner's flat
// compilation — projected onto the features it splits on — plus the
// feature representation needed to rebuild those columns in an immutable
// artifact; the walked learner is not kept. A degenerate training slice
// (single-class labels) yields a fallback artifact that predicts the
// strongest baseline ranking (Average) instead of fitting a single-class
// model; the paper's country-scale data always has both classes, small
// reproductions occasionally do not.
func (m *ClassifierModel) Fit(c *Context, target Target, t, h, w int) (Trained, error) {
	tr, _, err := m.fitLearner(c, target, t, h, w)
	return tr, err
}

// walkedLearner is the pointer-based learner a classifier artifact's flat
// engine is compiled from (*mltree.Tree, *mltree.Forest or *mltree.GBT);
// the artifact's score for a row is PredictProbaInto's out[1].
type walkedLearner interface {
	PredictProbaInto(x, out []float64)
}

// fitLearner is Fit that also returns the walked learner the artifact's
// engine was flattened from (nil for a fallback artifact), so the flat
// engine can be checked against the pointer walk. Fit drops the learner.
func (m *ClassifierModel) fitLearner(c *Context, target Target, t, h, w int) (Trained, walkedLearner, error) {
	if err := c.CheckFit(t, h, w); err != nil {
		return nil, nil, err
	}
	n := c.Sectors()
	y := c.Labels(target)
	meta := newMeta(c, m.ModelName, target, t, h, w)

	// Assemble the training set: TrainDays label days, h-delayed windows.
	allSectors := m.SectorSubset == nil
	trainSectors := m.SectorSubset
	if allSectors {
		trainSectors = make([]int, n)
		for i := range trainSectors {
			trainSectors[i] = i
		}
	}
	labels, positives := trainingLabels(c, y, trainSectors, t)
	if positives == 0 || positives == len(labels) {
		return &baselineArtifact{meta, kindFallback}, nil, nil
	}

	var weights []float64
	if !m.Unbalanced {
		weights = mltree.BalancedWeights(labels)
	}
	var bin *mltree.Binned
	if allSectors {
		// One training build per (extractor, cutoff, w), shared by every
		// tree, boosting round and model via the cache.
		mat, err := c.BinnedTrainingMatrix(m.Extractor, t, h, w)
		if err != nil {
			return nil, nil, fmt.Errorf("forecast: building training matrix: %w", err)
		}
		bin = mat.Bin
	} else {
		// Subset rows are bespoke: build and quantize them privately,
		// bypassing the all-sector cache.
		sectors, ends := trainingInstances(c, trainSectors, t-h)
		x, wd, err := features.BuildMatrix(c.View, m.Extractor, sectors, ends, w, c.FitWorkers)
		if err != nil {
			return nil, nil, fmt.Errorf("forecast: building training matrix: %w", err)
		}
		if bin, err = mltree.Bin(x, len(sectors), wd, c.FitWorkers); err != nil {
			return nil, nil, fmt.Errorf("forecast: building training matrix: %w", err)
		}
	}

	art := &classifierArtifact{artifactMeta: meta, extractor: m.Extractor}
	seed := c.Seed ^ uint64(t)<<24 ^ uint64(h)<<12 ^ uint64(w)
	var learner walkedLearner
	var err error
	if m.SingleTree {
		rng := randx.DeriveIndexed(seed, 0x7e11, "tree-model", t)
		var tree *mltree.Tree
		if tree, err = mltree.FitTreeBinned(bin, labels, weights, mltree.TreeConfig(), rng); err != nil {
			return nil, nil, fmt.Errorf("forecast: fitting tree: %w", err)
		}
		art.kind = kindTree
		art.engine, err = tree.Flatten()
		art.importances = tree.Importances()
		learner = tree
	} else {
		cfg := mltree.ForestConfig{
			NumTrees:  c.ForestTrees,
			Tree:      mltree.ForestTreeConfig(),
			Bootstrap: true,
			Seed:      seed,
			Workers:   c.FitWorkers,
		}
		var forest *mltree.Forest
		if forest, err = mltree.FitForestBinned(bin, labels, weights, cfg); err != nil {
			return nil, nil, fmt.Errorf("forecast: fitting forest: %w", err)
		}
		art.kind = kindForest
		art.engine, err = forest.Flatten()
		art.importances = forest.Importances()
		learner = forest
	}
	if err != nil {
		return nil, nil, fmt.Errorf("forecast: compiling %s: %w", m.ModelName, err)
	}
	return art, learner, nil
}

// Forecast implements Model: the Fit+Predict shim, with fits served from
// the trained-model cache. Prediction reads the artifact's code tiles of
// the (extractor, t, w) window through the feature cache.
func (m *ClassifierModel) Forecast(c *Context, target Target, t, h, w int) ([]float64, error) {
	if err := c.CheckTask(t, h, w); err != nil {
		return nil, err
	}
	tr, err := c.TrainedModel(m, target, t, h, w)
	if err != nil {
		return nil, err
	}
	// Surface the fit's importances on the model, as the pre-split Forecast
	// did; a fallback artifact records none.
	if ca, ok := tr.(*classifierArtifact); ok {
		m.setImportances(ca.importances)
	}
	return tr.Predict(c, t, w)
}

// Baselines returns the paper's four baseline models in Table III order.
func Baselines() []Model {
	return []Model{RandomModel{}, PersistModel{}, AverageModel{}, TrendModel{}}
}

// Classifiers returns the paper's four classifier models in Table III
// order.
func Classifiers() []Model {
	return []Model{NewTreeModel(), NewRFR(), NewRFF1(), NewRFF2()}
}

// AllModels returns all eight models of Table III.
func AllModels() []Model {
	return append(Baselines(), Classifiers()...)
}

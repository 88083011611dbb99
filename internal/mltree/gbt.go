package mltree

import (
	"fmt"
	"math"

	"repro/internal/randx"
)

// GBT is a gradient-boosted-tree binary classifier with logistic loss and
// per-leaf Newton updates (Friedman's gradient boosting with the standard
// second-order leaf step). The paper's related work applies gradient
// boosted trees to hot-spot prediction in data centers, and its conclusion
// names higher-capacity learners as the path to better long-horizon
// forecasts; GBT is this repository's implementation of that extension.
type GBT struct {
	prior       float64
	shrinkage   float64
	trees       []*Tree
	NumFeatures int
}

// GBTConfig controls boosting.
type GBTConfig struct {
	// Rounds is the number of boosting stages.
	Rounds int
	// Shrinkage is the learning rate applied to each stage (0.05-0.3).
	Shrinkage float64
	// MaxDepth bounds each stage's regression tree (shallow: 3-6).
	MaxDepth int
	// MinSamplesLeaf bounds leaf size.
	MinSamplesLeaf int
	// SubsampleFraction trains each stage on a random subset (stochastic
	// gradient boosting); 1 = all instances.
	SubsampleFraction float64
	// Seed makes training deterministic.
	Seed uint64
}

// DefaultGBTConfig returns sensible boosting settings for the forecasting
// tasks.
func DefaultGBTConfig() GBTConfig {
	return GBTConfig{
		Rounds: 60, Shrinkage: 0.15, MaxDepth: 4, MinSamplesLeaf: 10,
		SubsampleFraction: 0.7, Seed: 1,
	}
}

func sigmoid(x float64) float64 {
	if x < -40 {
		return 0
	}
	if x > 40 {
		return 1
	}
	return 1 / (1 + math.Exp(-x))
}

// PredictProba returns [P(class 0), P(class 1)] for one instance.
func (g *GBT) PredictProba(x []float64) []float64 {
	out := make([]float64, 2)
	g.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto writes [P(class 0), P(class 1)] into out (len 2)
// without allocating.
func (g *GBT) PredictProbaInto(x, out []float64) {
	p := sigmoid(g.Raw(x))
	out[0], out[1] = 1-p, p
}

// Raw returns the margin F(x) (log-odds scale).
func (g *GBT) Raw(x []float64) float64 {
	s := g.prior
	for _, t := range g.trees {
		s += g.shrinkage * t.Predict(x)
	}
	return s
}

// Rounds returns the number of fitted stages.
func (g *GBT) Rounds() int { return len(g.trees) }

// FitGBTBinned trains a boosted classifier with the histogram engine on a
// pre-binned matrix: one quantization serves all rounds, and per-round leaf
// assignments come from the growth partition instead of tree traversals.
// The loss is logistic, with Newton leaf steps, shrinkage and
// stochastic subsampling.
func FitGBTBinned(bn *Binned, y []int, w []float64, cfg GBTConfig) (*GBT, error) {
	n := bn.N
	labels, err := binaryTargets(y, n)
	if err != nil {
		return nil, err
	}
	if cfg.Rounds < 1 || cfg.Shrinkage <= 0 {
		return nil, fmt.Errorf("mltree: bad GBT config %+v", cfg)
	}
	if cfg.SubsampleFraction <= 0 || cfg.SubsampleFraction > 1 {
		cfg.SubsampleFraction = 1
	}
	if w == nil {
		w = uniformWeights(n)
	}
	// The caller's weights are checked before subsampling, which could
	// leave a bad row out of every stage.
	wtot, err := checkWeights(w, n)
	if err != nil {
		return nil, err
	}
	wpos := 0.0
	for i, c := range y {
		if c == 1 {
			wpos += w[i]
		}
	}
	if wpos == 0 || wpos == wtot {
		return nil, fmt.Errorf("mltree: GBT needs both classes")
	}
	p0 := wpos / wtot
	model := &GBT{prior: math.Log(p0 / (1 - p0)), shrinkage: cfg.Shrinkage, NumFeatures: bn.F}

	rng := randx.New(cfg.Seed, 0x9b7)
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = model.prior
	}
	residual := make([]float64, n)
	subW := make([]float64, n)
	leafOf := make([]int32, n)
	treeCfg := Config{Rule: SqrtFeatures, MaxDepth: cfg.MaxDepth, MinSamplesLeaf: cfg.MinSamplesLeaf}
	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			p := sigmoid(raw[i])
			residual[i] = labels[i] - p
			if cfg.SubsampleFraction < 1 && !rng.Bool(cfg.SubsampleFraction) {
				subW[i] = 0
			} else {
				subW[i] = w[i]
			}
		}
		tree, err := growTree(bn, residual, subW, treeCfg, rng.Derive("stage"), false, leafOf)
		if err != nil {
			return nil, err
		}
		leaves := tree.LeafCount()
		num := make([]float64, leaves)
		den := make([]float64, leaves)
		for i := 0; i < n; i++ {
			if subW[i] == 0 {
				continue
			}
			p := sigmoid(raw[i])
			num[leafOf[i]] += subW[i] * residual[i]
			den[leafOf[i]] += subW[i] * p * (1 - p)
		}
		values := make([]float64, leaves)
		for l := range values {
			if den[l] > 1e-9 {
				values[l] = num[l] / den[l]
			}
			if values[l] > 4 {
				values[l] = 4
			}
			if values[l] < -4 {
				values[l] = -4
			}
		}
		tree.SetLeafValues(values)
		// Update margins on ALL instances via the recorded leaf assignment —
		// no per-row traversal.
		for i := 0; i < n; i++ {
			raw[i] += cfg.Shrinkage * values[leafOf[i]]
		}
		model.trees = append(model.trees, tree)
	}
	return model, nil
}

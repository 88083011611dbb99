package mltree

import "math"

// GBT is a gradient-boosted-tree binary classifier with logistic loss and
// per-leaf Newton updates (Friedman's gradient boosting with the standard
// second-order leaf step). The paper's related work applies gradient
// boosted trees to hot-spot prediction in data centers, and its conclusion
// names higher-capacity learners as the path to better long-horizon
// forecasts; GBT is this repository's implementation of that extension.
type GBT struct {
	prior       float64
	shrinkage   float64
	trees       []*RegressionTree
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

// FitGBT trains a boosted classifier on binary labels y with optional
// sample weights. X is quantized once, at weighted quantiles of w, and the
// binned matrix serves every round (FitGBTBinned).
func FitGBT(x []float64, n, f int, y []int, w []float64, cfg GBTConfig) (*GBT, error) {
	bn, err := binShared(x, n, f, w, DefaultMaxBins, 1)
	if err != nil {
		return nil, err
	}
	return FitGBTBinned(bn, y, w, cfg)
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

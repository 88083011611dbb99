package mltree

import "repro/internal/randx"

// RegressionTree is a CART regressor: axis-aligned splits chosen by
// weighted variance reduction, constant leaf values. It is the base learner
// for gradient boosting (see gbt.go), the extension model the paper's
// related work applies to hot-spot prediction and its conclusion points to
// for long-horizon improvements.
type RegressionTree struct {
	nodes       []rnode
	NumFeatures int
}

type rnode struct {
	feature   int32 // -1 for leaves
	threshold float64
	left      int32
	right     int32
	value     float64
	leafID    int32 // dense leaf index, -1 for internal nodes
}

// RegressionConfig controls regression-tree induction.
type RegressionConfig struct {
	// MaxDepth caps depth (boosting typically uses shallow trees, 3-6).
	MaxDepth int
	// MinSamplesLeaf is the minimum instance count per leaf.
	MinSamplesLeaf int
	// Rule and Fraction select the per-split feature subset (as in Config).
	Rule     FeatureRule
	Fraction float64
}

// FitRegressionTree fits targets (any real values) with optional weights
// on a NaN-free X: it quantizes X at weighted quantiles of w through the
// shared quantization cache, then grows the tree with
// FitRegressionTreeBinned.
func FitRegressionTree(x []float64, n, f int, targets, w []float64, cfg RegressionConfig, rng *randx.RNG) (*RegressionTree, error) {
	bn, err := binShared(x, n, f, w, DefaultMaxBins, 1)
	if err != nil {
		return nil, err
	}
	return FitRegressionTreeBinned(bn, targets, w, cfg, rng)
}

// Predict returns the leaf value for one instance.
func (t *RegressionTree) Predict(x []float64) float64 {
	cur := int32(0)
	for {
		nd := &t.nodes[cur]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			cur = nd.left
		} else {
			cur = nd.right
		}
	}
}

// LeafID returns the dense leaf index an instance falls into.
func (t *RegressionTree) LeafID(x []float64) int {
	cur := int32(0)
	for {
		nd := &t.nodes[cur]
		if nd.feature < 0 {
			return int(nd.leafID)
		}
		if x[nd.feature] <= nd.threshold {
			cur = nd.left
		} else {
			cur = nd.right
		}
	}
}

// LeafCount returns the number of leaves.
func (t *RegressionTree) LeafCount() int {
	n := 0
	for _, nd := range t.nodes {
		if nd.feature < 0 {
			n++
		}
	}
	return n
}

// SetLeafValues overwrites leaf values by dense leaf index (used by the
// boosting Newton step).
func (t *RegressionTree) SetLeafValues(values []float64) {
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			t.nodes[i].value = values[t.nodes[i].leafID]
		}
	}
}

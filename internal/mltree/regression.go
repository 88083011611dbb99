package mltree

import (
	"fmt"

	"repro/internal/randx"
)

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
	// Algo selects the split search (see Config.Algo).
	Algo SplitAlgo
}

// FitRegressionTree fits targets (any real values) with optional weights.
// X must be NaN-free.
func FitRegressionTree(x []float64, n, f int, targets, w []float64, cfg RegressionConfig, rng *randx.RNG) (*RegressionTree, error) {
	if n <= 0 || f <= 0 || len(x) != n*f {
		return nil, fmt.Errorf("mltree: bad shapes: %d values for %dx%d", len(x), n, f)
	}
	work := splitWork(Config{Rule: cfg.Rule, Fraction: cfg.Fraction}, n, f)
	if cfg.Algo.Resolve(work) == SplitHist {
		bn, err := binShared(x, n, f, w, DefaultMaxBins, 1)
		if err != nil {
			return nil, err
		}
		return FitRegressionTreeBinned(bn, targets, w, cfg, rng)
	}
	if len(targets) != n {
		return nil, fmt.Errorf("mltree: %d targets for %d instances", len(targets), n)
	}
	if w == nil {
		w = uniformWeights(n)
	} else if len(w) != n {
		return nil, fmt.Errorf("mltree: %d weights for %d instances", len(w), n)
	}
	if cfg.MinSamplesLeaf < 1 {
		cfg.MinSamplesLeaf = 1
	}
	t := &RegressionTree{NumFeatures: f}
	b := &rbuilder{x: x, n: n, f: f, y: targets, w: w, cfg: cfg, rng: rng, tree: t}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	b.grow(idx, 0)
	return t, nil
}

type rbuilder struct {
	x     []float64
	n, f  int
	y     []float64
	w     []float64
	cfg   RegressionConfig
	rng   *randx.RNG
	tree  *RegressionTree
	order []int32
	vals  []float64
	// leaves counts leaves already created, so leaf-ID assignment is O(1)
	// per leaf instead of rescanning every node.
	leaves int32
}

func (b *rbuilder) grow(idx []int32, depth int) int32 {
	var sw, swy float64
	for _, i := range idx {
		sw += b.w[i]
		swy += b.w[i] * b.y[i]
	}
	mean := 0.0
	if sw > 0 {
		mean = swy / sw
	}
	leaf := func() int32 {
		id := b.leaves
		b.leaves++
		b.tree.nodes = append(b.tree.nodes, rnode{feature: -1, value: mean, leafID: id})
		return int32(len(b.tree.nodes) - 1)
	}
	if len(idx) < 2*b.cfg.MinSamplesLeaf || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) || sw <= 0 {
		return leaf()
	}
	feat, thr, ok := b.bestSplit(idx, sw, mean)
	if !ok {
		return leaf()
	}
	lo, hi := 0, len(idx)
	for lo < hi {
		if b.x[int(idx[lo])*b.f+feat] <= thr {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo < b.cfg.MinSamplesLeaf || len(idx)-lo < b.cfg.MinSamplesLeaf {
		return leaf()
	}
	self := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, rnode{feature: int32(feat), threshold: thr, leafID: -1})
	left := b.grow(idx[:lo], depth+1)
	right := b.grow(idx[lo:], depth+1)
	b.tree.nodes[self].left = left
	b.tree.nodes[self].right = right
	return self
}

// bestSplit maximises weighted SSE reduction, equivalent to maximising
// sum_L(wy)^2/w_L + sum_R(wy)^2/w_R.
func (b *rbuilder) bestSplit(idx []int32, totalW, mean float64) (int, float64, bool) {
	m := len(idx)
	nFeat := featureCountFor(Config{Rule: b.cfg.Rule, Fraction: b.cfg.Fraction}, b.f)
	features := b.rng.SampleWithoutReplacement(b.f, nFeat)
	if cap(b.order) < m {
		b.order = make([]int32, m)
		b.vals = make([]float64, m)
	}
	order := b.order[:m]
	vals := b.vals[:m]

	var totalWY float64
	for _, i := range idx {
		totalWY += b.w[i] * b.y[i]
	}
	bestGain, bestFeat, bestThr := 0.0, -1, 0.0
	baseScore := totalWY * totalWY / totalW
	for _, feat := range features {
		for p, i := range idx {
			order[p] = i
			vals[p] = b.x[int(i)*b.f+feat]
		}
		sortPairsByVal(vals, order)
		if vals[0] == vals[m-1] {
			continue
		}
		var wl, wyl float64
		for p := 0; p < m-1; p++ {
			i := order[p]
			wl += b.w[i]
			wyl += b.w[i] * b.y[i]
			if vals[p] == vals[p+1] {
				continue
			}
			if p+1 < b.cfg.MinSamplesLeaf || m-(p+1) < b.cfg.MinSamplesLeaf {
				continue
			}
			wr := totalW - wl
			if wl <= 0 || wr <= 0 {
				continue
			}
			wyr := totalWY - wyl
			gain := wyl*wyl/wl + wyr*wyr/wr - baseScore
			if gain > bestGain {
				bestGain, bestFeat = gain, feat
				bestThr = vals[p] + (vals[p+1]-vals[p])/2
				if bestThr >= vals[p+1] {
					bestThr = vals[p]
				}
			}
		}
	}
	return bestFeat, bestThr, bestFeat >= 0 && bestGain > 1e-12
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

// Package mltree implements the paper's learners from scratch: CART
// trees on a binary target, bagged random forests with probability
// averaging and mean-decrease-in-impurity feature importances, and
// gradient-boosted trees whose stages are regression trees. Every tree —
// a lone classifier, a forest member or a boosting stage — grows on one
// histogram grower over quantized features (binned.go), and every fitted
// model compiles to one flat inference engine (flat.go).
//
// Labels are binary (0 or 1): the paper's target is "is or becomes a hot
// spot". The grower scores every split by weighted variance reduction,
// and a classifier is the regression tree on its 0/1 labels. For 0/1
// targets the two criteria agree: with W, W_L, W_R the node's and its
// sides' weights and P, P_L, P_R their positive weights, the weighted
// Gini decrease is
//
//	(2/W) * (P_L²/W_L + P_R²/W_R - P²/W),
//
// exactly 2/W times the variance reduction, so both pick the same split
// up to float rounding between near-tied candidates. A leaf's value is
// its weighted target mean: a classifier's class-1 probability, or a
// boosting stage's output.
//
// The hyper-parameters mirror Sec. IV-D:
//
//   - Tree model: Gini splits, a random 80% of the features evaluated at
//     every partition, class-balanced sample weights, and partitioning that
//     stops when a node holds less than 2% of the total weight.
//   - Random forest: bootstrap-sampled trees, at most sqrt(F) features per
//     split, and much deeper trees (0.02% weight stopping).
package mltree

import (
	"fmt"
	"math"

	"repro/internal/randx"
)

// FeatureRule selects how many features are evaluated at each split.
type FeatureRule int

// Feature-subset rules.
const (
	// AllFeatures evaluates every feature (classical CART).
	AllFeatures FeatureRule = iota
	// FractionFeatures evaluates a random fraction (paper's Tree: 0.8).
	FractionFeatures
	// SqrtFeatures evaluates a random sqrt(F) subset (paper's forests).
	SqrtFeatures
)

// Config controls tree induction, for classifiers and boosting stages
// alike.
type Config struct {
	// Rule and Fraction select the per-split feature subset.
	Rule     FeatureRule
	Fraction float64
	// MinWeightFraction stops partitioning of nodes holding less than this
	// fraction of the total sample weight.
	MinWeightFraction float64
	// MaxDepth caps tree depth (0 = unlimited).
	MaxDepth int
	// MinSamplesLeaf is the minimum instance count per leaf (0 or 1 = no
	// bound beyond a non-empty leaf).
	MinSamplesLeaf int
}

// TreeConfig returns the paper's single-tree configuration.
func TreeConfig() Config {
	return Config{Rule: FractionFeatures, Fraction: 0.8, MinWeightFraction: 0.02}
}

// ForestTreeConfig returns the per-tree configuration used inside the
// paper's random forests.
func ForestTreeConfig() Config {
	return Config{Rule: SqrtFeatures, MinWeightFraction: 0.0002}
}

// node is one tree node.
type node struct {
	threshold float64
	value     float64 // a leaf's weighted target mean (or boosting step)
	feature   int32   // -1 for leaves
	left      int32
	right     int32
	leafID    int32 // dense leaf index, -1 for internal nodes
}

// Tree is a fitted CART tree: a classifier whose leaf values are class-1
// probabilities, or a regression tree (a boosting stage).
type Tree struct {
	nodes       []node
	NumFeatures int
	importances []float64 // normalised mean decrease in impurity; nil for regression trees
}

// BalancedWeights returns sample weights inversely proportional to class
// frequency ("balanced" mode) for binary labels: w_i = total / (2 *
// count(y_i)). This is the weighting the paper applies for both the Tree
// and RF models.
func BalancedWeights(y []int) []float64 {
	var counts [2]float64
	for _, c := range y {
		counts[c]++
	}
	total := float64(len(y))
	w := make([]float64, len(y))
	for i, c := range y {
		w[i] = total / (2 * counts[c])
	}
	return w
}

// uniformWeights returns the shared all-ones weight vector for the w == nil
// path, allocated once per fit (and hoisted to once per forest).
func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// bootstrapWeights draws one tree's bootstrap resample as count-weights:
// drawing each instance a multinomial number of times and training on the
// resample is equivalent to scaling its sample weight by the draw count.
// This avoids copying the (large) feature matrix per tree; the RNG
// consumption is part of the forest's determinism contract.
func bootstrapWeights(rng *randx.RNG, n int, w []float64) []float64 {
	counts := make([]float64, n)
	for d := 0; d < n; d++ {
		counts[rng.IntN(n)]++
	}
	if w == nil {
		return counts
	}
	wb := make([]float64, n)
	for i := range wb {
		wb[i] = w[i] * counts[i]
	}
	return wb
}

func featureCountFor(cfg Config, f int) int {
	switch cfg.Rule {
	case FractionFeatures:
		n := int(math.Ceil(cfg.Fraction * float64(f)))
		if n < 1 {
			n = 1
		}
		if n > f {
			n = f
		}
		return n
	case SqrtFeatures:
		n := int(math.Sqrt(float64(f)))
		if n < 1 {
			n = 1
		}
		return n
	default:
		return f
	}
}

// PredictProba returns [P(class 0), P(class 1)] for one instance.
func (t *Tree) PredictProba(x []float64) []float64 {
	out := make([]float64, 2)
	t.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto writes [P(class 0), P(class 1)] into out (len 2).
func (t *Tree) PredictProbaInto(x []float64, out []float64) {
	p := t.Predict(x)
	out[0], out[1] = 1-p, p
}

// Predict returns the leaf value for one instance: a classifier's class-1
// probability, a regression tree's prediction.
func (t *Tree) Predict(x []float64) float64 {
	return t.nodes[t.leaf(x)].value
}

// LeafID returns the dense leaf index an instance falls into.
func (t *Tree) LeafID(x []float64) int {
	return int(t.nodes[t.leaf(x)].leafID)
}

// leaf returns the index of the leaf node x descends to.
func (t *Tree) leaf(x []float64) int32 {
	if len(x) != t.NumFeatures {
		panic(fmt.Sprintf("mltree: instance has %d features, tree expects %d", len(x), t.NumFeatures))
	}
	cur := int32(0)
	for {
		nd := &t.nodes[cur]
		if nd.feature < 0 {
			return cur
		}
		if x[nd.feature] <= nd.threshold {
			cur = nd.left
		} else {
			cur = nd.right
		}
	}
}

// LeafCount returns the number of leaves.
func (t *Tree) LeafCount() int {
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
func (t *Tree) SetLeafValues(values []float64) {
	for i := range t.nodes {
		if t.nodes[i].feature < 0 {
			t.nodes[i].value = values[t.nodes[i].leafID]
		}
	}
}

// Importances returns the normalised mean-decrease-in-impurity feature
// importances (summing to 1 when any split occurred).
func (t *Tree) Importances() []float64 {
	out := make([]float64, len(t.importances))
	copy(out, t.importances)
	return out
}

// NodeCount returns the number of nodes (diagnostic).
func (t *Tree) NodeCount() int { return len(t.nodes) }

// Depth returns the maximum depth (root = 0).
func (t *Tree) Depth() int {
	var walk func(i int32, d int) int
	walk = func(i int32, d int) int {
		nd := &t.nodes[i]
		if nd.feature < 0 {
			return d
		}
		l := walk(nd.left, d+1)
		r := walk(nd.right, d+1)
		if l > r {
			return l
		}
		return r
	}
	if len(t.nodes) == 0 {
		return 0
	}
	return walk(0, 0)
}

// RootFeature returns the feature index used at the root split, or -1 for a
// stump; the paper inspects first splits to interpret models (Sec. V-B).
func (t *Tree) RootFeature() int {
	if len(t.nodes) == 0 {
		return -1
	}
	return int(t.nodes[0].feature)
}

// ForestConfig controls random-forest induction.
type ForestConfig struct {
	// NumTrees is the ensemble size.
	NumTrees int
	// Tree is the per-tree configuration (ForestTreeConfig by default).
	Tree Config
	// Bootstrap draws each tree's training set with replacement.
	Bootstrap bool
	// Seed makes the forest deterministic.
	Seed uint64
	// Workers bounds parallel tree construction (0 = GOMAXPROCS).
	Workers int
}

// DefaultForestConfig mirrors the paper's forest settings.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{NumTrees: 30, Tree: ForestTreeConfig(), Bootstrap: true, Seed: 1}
}

// Forest is a fitted random forest.
type Forest struct {
	Trees       []*Tree
	NumFeatures int
}

// PredictProba averages class probabilities over the ensemble.
func (fo *Forest) PredictProba(x []float64) []float64 {
	out := make([]float64, 2)
	fo.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto writes the ensemble-averaged [P(class 0), P(class 1)]
// into out (len 2) without allocating: the trees' leaf values add up in
// ensemble order, the sum the flat engine's mean takes.
func (fo *Forest) PredictProbaInto(x, out []float64) {
	if len(x) != fo.NumFeatures {
		panic(fmt.Sprintf("mltree: instance has %d features, forest expects %d", len(x), fo.NumFeatures))
	}
	p := 0.0
	for _, t := range fo.Trees {
		p += t.Predict(x)
	}
	p *= 1.0 / float64(len(fo.Trees))
	out[0], out[1] = 1-p, p
}

// Importances averages the trees' normalised feature importances.
func (fo *Forest) Importances() []float64 {
	out := make([]float64, fo.NumFeatures)
	for _, t := range fo.Trees {
		for i, v := range t.Importances() {
			out[i] += v
		}
	}
	inv := 1.0 / float64(len(fo.Trees))
	for i := range out {
		out[i] *= inv
	}
	return out
}

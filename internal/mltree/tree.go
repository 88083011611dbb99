// Package mltree implements the paper's learners from scratch:
// classification and regression trees (CART) with the Gini split criterion,
// and bagged random forests with probability averaging and
// mean-decrease-in-impurity feature importances. Every tree grows on one
// histogram split search over quantized features (binned.go), and every
// fitted model compiles to one flat inference engine (flat.go).
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

// Config controls tree induction.
type Config struct {
	// Rule and Fraction select the per-split feature subset.
	Rule     FeatureRule
	Fraction float64
	// MinWeightFraction stops partitioning of nodes holding less than this
	// fraction of the total sample weight.
	MinWeightFraction float64
	// MaxDepth caps tree depth (0 = unlimited).
	MaxDepth int
	// MinImpurityDecrease skips splits with negligible improvement.
	MinImpurityDecrease float64
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

// node is one tree node; leaves carry class probabilities.
type node struct {
	feature   int32 // -1 for leaves
	threshold float64
	left      int32
	right     int32
	probs     []float64
}

// Tree is a fitted CART classifier.
type Tree struct {
	nodes       []node
	NumFeatures int
	NumClasses  int
	importances []float64 // normalised mean decrease in impurity
}

// BalancedWeights returns sample weights inversely proportional to class
// frequency ("balanced" mode): w_i = total / (classes * count(y_i)). This
// is the weighting the paper applies for both the Tree and RF models.
func BalancedWeights(y []int, numClasses int) []float64 {
	counts := make([]float64, numClasses)
	for _, c := range y {
		counts[c]++
	}
	total := float64(len(y))
	w := make([]float64, len(y))
	for i, c := range y {
		w[i] = total / (float64(numClasses) * counts[c])
	}
	return w
}

// FitTree grows a CART classifier on X (n x f, row-major, NaN-free),
// labels y in [0, numClasses) and optional sample weights w (nil =
// uniform): it quantizes X at weighted quantiles of w through the shared
// quantization cache, then grows the tree with FitTreeBinned.
func FitTree(x []float64, n, f int, y []int, w []float64, numClasses int, cfg Config, rng *randx.RNG) (*Tree, error) {
	bn, err := binShared(x, n, f, w, DefaultMaxBins, 1)
	if err != nil {
		return nil, err
	}
	return FitTreeBinned(bn, y, w, numClasses, cfg, rng)
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

// sortPairsByVal sorts vals ascending, permuting idx in tandem; ties are
// broken by idx so the order is deterministic. Hand-rolled quicksort with an
// insertion-sort tail: measurably faster than sort.Sort's interface calls
// when weighted binning sorts a column with its row indices.
func sortPairsByVal(vals []float64, idx []int32) {
	for len(vals) > 16 {
		// Median-of-three pivot.
		m := len(vals) / 2
		hi := len(vals) - 1
		if pairLess(vals[m], idx[m], vals[0], idx[0]) {
			vals[m], vals[0] = vals[0], vals[m]
			idx[m], idx[0] = idx[0], idx[m]
		}
		if pairLess(vals[hi], idx[hi], vals[0], idx[0]) {
			vals[hi], vals[0] = vals[0], vals[hi]
			idx[hi], idx[0] = idx[0], idx[hi]
		}
		if pairLess(vals[hi], idx[hi], vals[m], idx[m]) {
			vals[hi], vals[m] = vals[m], vals[hi]
			idx[hi], idx[m] = idx[m], idx[hi]
		}
		pv, pi := vals[m], idx[m]
		i, j := 0, hi
		for i <= j {
			for pairLess(vals[i], idx[i], pv, pi) {
				i++
			}
			for pairLess(pv, pi, vals[j], idx[j]) {
				j--
			}
			if i <= j {
				vals[i], vals[j] = vals[j], vals[i]
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j < len(vals)-i {
			sortPairsByVal(vals[:j+1], idx[:j+1])
			vals, idx = vals[i:], idx[i:]
		} else {
			sortPairsByVal(vals[i:], idx[i:])
			vals, idx = vals[:j+1], idx[:j+1]
		}
	}
	// Insertion sort for small ranges.
	for i := 1; i < len(vals); i++ {
		v, id := vals[i], idx[i]
		j := i - 1
		for j >= 0 && pairLess(v, id, vals[j], idx[j]) {
			vals[j+1], idx[j+1] = vals[j], idx[j]
			j--
		}
		vals[j+1], idx[j+1] = v, id
	}
}

func pairLess(v1 float64, i1 int32, v2 float64, i2 int32) bool {
	if v1 != v2 {
		return v1 < v2
	}
	return i1 < i2
}

// gini returns 1 - sum_c p_c^2 for class weights summing to total.
func gini(classW []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	s := 0.0
	for _, w := range classW {
		p := w / total
		s += p * p
	}
	return 1 - s
}

// giniComplement computes the Gini of (classW - leftW) with weight total.
func giniComplement(classW, leftW []float64, total float64) float64 {
	if total <= 0 {
		return 0
	}
	s := 0.0
	for c := range classW {
		p := (classW[c] - leftW[c]) / total
		s += p * p
	}
	return 1 - s
}

// PredictProba returns the class probability vector for one instance.
func (t *Tree) PredictProba(x []float64) []float64 {
	out := make([]float64, t.NumClasses)
	t.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto writes class probabilities into out (len NumClasses).
func (t *Tree) PredictProbaInto(x []float64, out []float64) {
	if len(x) != t.NumFeatures {
		panic(fmt.Sprintf("mltree: instance has %d features, tree expects %d", len(x), t.NumFeatures))
	}
	cur := int32(0)
	for {
		nd := &t.nodes[cur]
		if nd.feature < 0 {
			copy(out, nd.probs)
			return
		}
		if x[nd.feature] <= nd.threshold {
			cur = nd.left
		} else {
			cur = nd.right
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
	NumClasses  int
}

// FitForest grows cfg.NumTrees trees in parallel on bootstrap resamples.
// X is quantized once, at weighted quantiles of the caller's base weights,
// and the binned matrix is shared by the whole ensemble (FitForestBinned).
func FitForest(x []float64, n, f int, y []int, w []float64, numClasses int, cfg ForestConfig) (*Forest, error) {
	if cfg.NumTrees < 1 {
		return nil, fmt.Errorf("mltree: forest needs at least 1 tree")
	}
	bn, err := binShared(x, n, f, w, DefaultMaxBins, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return FitForestBinned(bn, y, w, numClasses, cfg)
}

// PredictProba averages class probabilities over the ensemble.
func (fo *Forest) PredictProba(x []float64) []float64 {
	out := make([]float64, fo.NumClasses)
	fo.PredictProbaInto(x, out)
	return out
}

// PredictProbaInto writes the ensemble-averaged class probabilities into
// out (len NumClasses) without allocating: each tree's leaf probabilities
// accumulate straight from its node table, in ensemble order, so the
// result is bit-identical to the historical copy-then-add path.
func (fo *Forest) PredictProbaInto(x, out []float64) {
	if len(x) != fo.NumFeatures {
		panic(fmt.Sprintf("mltree: instance has %d features, forest expects %d", len(x), fo.NumFeatures))
	}
	for c := range out {
		out[c] = 0
	}
	for _, t := range fo.Trees {
		cur := int32(0)
		for {
			nd := &t.nodes[cur]
			if nd.feature < 0 {
				for c, p := range nd.probs {
					out[c] += p
				}
				break
			}
			if x[nd.feature] <= nd.threshold {
				cur = nd.left
			} else {
				cur = nd.right
			}
		}
	}
	inv := 1.0 / float64(len(fo.Trees))
	for c := range out {
		out[c] *= inv
	}
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

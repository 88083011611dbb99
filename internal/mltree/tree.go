// Package mltree implements the paper's learners from scratch:
// classification and regression trees (CART) with the Gini split criterion,
// and bagged random forests with probability averaging and
// mean-decrease-in-impurity feature importances.
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

	"repro/internal/parallel"
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
	// Algo selects the split search: SplitAuto (default; hist above
	// histThreshold of root-split work, exact below), SplitExact
	// (sort-based, bit-compatible at any scale), or SplitHist
	// (histogram-binned O(bins) scan).
	Algo SplitAlgo
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

// FitTree grows a CART classifier on X (n x f, row-major), labels y in
// [0, numClasses) and optional sample weights w (nil = uniform). X must not
// contain NaN. cfg.Algo selects the split search; on the exact path, column
// presorting is enabled automatically when the search is large enough to
// profit from it.
func FitTree(x []float64, n, f int, y []int, w []float64, numClasses int, cfg Config, rng *randx.RNG) (*Tree, error) {
	if cfg.Algo.Resolve(splitWork(cfg, n, f)) == SplitHist {
		bn, err := binShared(x, n, f, w, DefaultMaxBins, 1)
		if err != nil {
			return nil, err
		}
		return FitTreeBinned(bn, y, w, numClasses, cfg, rng)
	}
	var pre []int32
	if splitWork(cfg, n, f) >= presortThreshold {
		pre = Presort(x, n, f)
	}
	return fitTreePresorted(x, n, f, y, w, numClasses, cfg, rng, pre)
}

// splitWork estimates the root split cost: candidate features x instances.
func splitWork(cfg Config, n, f int) int {
	fc := featureCountFor(cfg, f)
	return fc * n
}

func fitTreePresorted(x []float64, n, f int, y []int, w []float64, numClasses int, cfg Config, rng *randx.RNG, pre []int32) (*Tree, error) {
	if n <= 0 || f <= 0 || len(x) != n*f {
		return nil, fmt.Errorf("mltree: bad shapes: %d values for %dx%d", len(x), n, f)
	}
	if len(y) != n {
		return nil, fmt.Errorf("mltree: %d labels for %d instances", len(y), n)
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("mltree: need at least 2 classes")
	}
	for _, c := range y {
		if c < 0 || c >= numClasses {
			return nil, fmt.Errorf("mltree: label %d outside [0,%d)", c, numClasses)
		}
	}
	if w == nil {
		w = uniformWeights(n)
	} else if len(w) != n {
		return nil, fmt.Errorf("mltree: %d weights for %d instances", len(w), n)
	}
	totalW := 0.0
	for _, v := range w {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("mltree: invalid weight %v", v)
		}
		totalW += v
	}
	if totalW == 0 {
		return nil, fmt.Errorf("mltree: zero total weight")
	}

	t := &Tree{NumFeatures: f, NumClasses: numClasses, importances: make([]float64, f)}
	b := &builder{
		x: x, n: n, f: f, y: y, w: w,
		numClasses: numClasses, cfg: cfg, rng: rng,
		minWeight: cfg.MinWeightFraction * totalW,
		totalW:    totalW,
		tree:      t,
		presorted: pre,
		classW:    make([]float64, numClasses),
		leftW:     make([]float64, numClasses),
	}
	if pre != nil {
		b.inNode = make([]bool, n)
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	b.grow(idx, 0)
	// Normalise importances (scikit-learn convention).
	sum := 0.0
	for _, v := range t.importances {
		sum += v
	}
	if sum > 0 {
		for i := range t.importances {
			t.importances[i] /= sum
		}
	}
	return t, nil
}

type builder struct {
	x          []float64
	n, f       int
	y          []int
	w          []float64
	numClasses int
	cfg        Config
	rng        *randx.RNG
	minWeight  float64
	totalW     float64
	tree       *Tree

	// presorted[f*n:(f+1)*n] is the argsort of feature column f over all
	// instances; shared across nodes (and across a forest's trees, since
	// bootstrap-by-weights never reorders X). Nil when presorting is not
	// worthwhile.
	presorted []int32
	// inNode marks the current node's members during a presorted scan.
	inNode []bool

	// scratch reused across nodes; classW and leftW hold per-node class
	// weights (a node never touches them after recursing into children).
	order  []int32
	vals   []float64
	classW []float64
	leftW  []float64
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
// This avoids copying the (large) feature matrix per tree and is shared by
// the exact and histogram forests — the RNG consumption is part of the
// forests' bit-compatibility contract, so change it nowhere or everywhere.
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

// presortThreshold is the work level (candidate features x instances) above
// which column presorting pays for itself.
const presortThreshold = 1 << 21

// Presort computes the shared per-feature argsort. It can be reused across
// trees trained on the same X (bootstrapping only reweights rows).
func Presort(x []float64, n, f int) []int32 {
	out := make([]int32, n*f)
	vals := make([]float64, n)
	for feat := 0; feat < f; feat++ {
		col := out[feat*n : (feat+1)*n]
		for i := 0; i < n; i++ {
			col[i] = int32(i)
			vals[i] = x[i*f+feat]
		}
		sortPairsByVal(vals, col)
	}
	return out
}

// grow recursively builds the subtree over instance indices idx and returns
// the node index.
func (b *builder) grow(idx []int32, depth int) int32 {
	classW := b.classW
	for c := range classW {
		classW[c] = 0
	}
	nodeW := 0.0
	for _, i := range idx {
		classW[b.y[i]] += b.w[i]
		nodeW += b.w[i]
	}
	impurity := gini(classW, nodeW)

	leaf := func() int32 {
		probs := make([]float64, b.numClasses)
		if nodeW > 0 {
			for c := range probs {
				probs[c] = classW[c] / nodeW
			}
		}
		b.tree.nodes = append(b.tree.nodes, node{feature: -1, probs: probs})
		return int32(len(b.tree.nodes) - 1)
	}

	if impurity == 0 || nodeW < b.minWeight || len(idx) < 2 ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return leaf()
	}

	feat, thr, decrease := b.bestSplit(idx, classW, nodeW, impurity)
	if feat < 0 || decrease <= b.cfg.MinImpurityDecrease {
		return leaf()
	}

	// Partition idx in place.
	lo, hi := 0, len(idx)
	for lo < hi {
		if b.x[int(idx[lo])*b.f+feat] <= thr {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo == 0 || lo == len(idx) {
		return leaf() // numerically degenerate split
	}

	b.tree.importances[feat] += nodeW / b.totalW * decrease

	// Reserve this node before children so indices are stable.
	self := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node{feature: int32(feat), threshold: thr})
	left := b.grow(idx[:lo], depth+1)
	right := b.grow(idx[lo:], depth+1)
	b.tree.nodes[self].left = left
	b.tree.nodes[self].right = right
	return self
}

// bestSplit scans a random feature subset for the split with the largest
// weighted Gini decrease. Returns feature -1 when no valid split exists.
//
// Two strategies, chosen per node: for large nodes with presorted columns
// available, walk the global argsort and filter node members (O(n) per
// feature, no sorting); for small nodes, gather and locally sort the
// member values (O(m log m) per feature).
func (b *builder) bestSplit(idx []int32, classW []float64, nodeW, impurity float64) (int, float64, float64) {
	m := len(idx)
	nFeat := b.featureCount()
	features := b.rng.SampleWithoutReplacement(b.f, nFeat)

	if cap(b.order) < m {
		b.order = make([]int32, m)
		b.vals = make([]float64, m)
	}
	order := b.order[:m]
	vals := b.vals[:m]

	usePresort := b.presorted != nil && m >= b.n/8
	if usePresort {
		for _, i := range idx {
			b.inNode[i] = true
		}
		defer func() {
			for _, i := range idx {
				b.inNode[i] = false
			}
		}()
	}

	bestFeat, bestThr, bestDec := -1, 0.0, 0.0
	leftW := b.leftW

	for _, feat := range features {
		if usePresort {
			col := b.presorted[feat*b.n : (feat+1)*b.n]
			p := 0
			for _, i := range col {
				if b.inNode[i] {
					order[p] = i
					vals[p] = b.x[int(i)*b.f+feat]
					p++
				}
			}
		} else {
			for p, i := range idx {
				order[p] = i
				vals[p] = b.x[int(i)*b.f+feat]
			}
			sortPairsByVal(vals, order)
		}
		if vals[0] == vals[m-1] {
			continue // constant feature in this node
		}
		for c := range leftW {
			leftW[c] = 0
		}
		wl := 0.0
		for p := 0; p < m-1; p++ {
			i := order[p]
			leftW[b.y[i]] += b.w[i]
			wl += b.w[i]
			if vals[p] == vals[p+1] {
				continue // cannot split between equal values
			}
			wr := nodeW - wl
			if wl <= 0 || wr <= 0 {
				continue
			}
			gl := gini(leftW, wl)
			gr := giniComplement(classW, leftW, wr)
			dec := impurity - (wl*gl+wr*gr)/nodeW
			if dec > bestDec {
				bestDec = dec
				bestFeat = feat
				bestThr = vals[p] + (vals[p+1]-vals[p])/2
				if bestThr >= vals[p+1] { // float rounding guard
					bestThr = vals[p]
				}
			}
		}
	}
	return bestFeat, bestThr, bestDec
}

func (b *builder) featureCount() int { return featureCountFor(b.cfg, b.f) }

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
// insertion-sort tail: measurably faster than sort.Sort's interface calls in
// the split-search hot loop.
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
// cfg.Tree.Algo selects the split search; the hist path quantizes X once
// and shares the binned matrix across the whole ensemble.
func FitForest(x []float64, n, f int, y []int, w []float64, numClasses int, cfg ForestConfig) (*Forest, error) {
	if cfg.NumTrees < 1 {
		return nil, fmt.Errorf("mltree: forest needs at least 1 tree")
	}
	if cfg.Tree.Algo.Resolve(splitWork(cfg.Tree, n, f)) == SplitHist {
		// Quantiles follow the caller's base weights; the per-tree bootstrap
		// reweighting happens after binning and shares the one quantization.
		bn, err := binShared(x, n, f, w, DefaultMaxBins, cfg.Workers)
		if err != nil {
			return nil, err
		}
		return FitForestBinned(bn, y, w, numClasses, cfg)
	}
	// Presort once for the whole ensemble: bootstrap-by-weights never
	// reorders X, so the per-feature argsort is shared by every tree.
	var pre []int32
	if splitWork(cfg.Tree, n, f) >= presortThreshold {
		pre = Presort(x, n, f)
	}
	// Uniform weights are read-only: one shared allocation serves every
	// tree instead of one per tree inside the fit.
	if w == nil && !cfg.Bootstrap {
		w = uniformWeights(n)
	}
	// Each tree's RNG is keyed by its index, so the forest is identical at
	// any worker count.
	trees := make([]*Tree, cfg.NumTrees)
	err := parallel.For(cfg.Workers, cfg.NumTrees, func(ti int) error {
		rng := randx.DeriveIndexed(cfg.Seed, 0x7ee5, "tree", ti)
		wi := w
		if cfg.Bootstrap {
			wi = bootstrapWeights(rng, n, w)
		}
		var err error
		trees[ti], err = fitTreePresorted(x, n, f, y, wi, numClasses, cfg.Tree, rng, pre)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Forest{Trees: trees, NumFeatures: f, NumClasses: numClasses}, nil
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

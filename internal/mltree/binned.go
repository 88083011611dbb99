package mltree

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
	"repro/internal/randx"
)

// This file is the training engine (LightGBM-style), the only split
// search there is: a Binner that quantizes a feature matrix once into at
// most 256 uint8 bins per column, and histogram-based split searches for
// the classification builder that scan O(bins) boundaries per candidate
// feature instead of sorting the node's values. Bin thresholds are placed
// at midpoints between adjacent bin extremes, so a tree grown on bin codes
// applies unchanged to raw float features at predict time, and a feature
// never carries more than DefaultMaxBins-1 distinct thresholds — the most
// one code column of the flat layout holds.
//
// The per-node cost model:
//
//	chain:  O(m_small x F) accumulation + O(candidates x bins) scan
//	direct: O(candidates x m) accumulation + O(touched bins) scan
//
// The engine picks between two histogram strategies per node. In chain
// mode, histograms cover every feature and the parent-minus-sibling
// subtraction trick means only the smaller child of a split is ever
// accumulated (the larger child's histograms are derived in place from the
// parent's) — the right shape when the candidate subset is most of F (the
// paper's Tree model evaluates 80% of features per split). In direct mode,
// each node accumulates only its own candidate features, sparsely (lazily
// cleared slots, touched-bin tracking) when the node is smaller than the
// bin budget — the right shape for sqrt-feature forests and boosting,
// where full-F histograms would mostly go unscanned. The strategy choice
// is a pure function of node sizes and the feature rule — never of
// scheduling — so a fit is reproducible at any worker count.

// SplitAlgo once selected between two split searches.
//
// Deprecated: ignored; hist is the only engine.
type SplitAlgo uint8

// SplitHist named the histogram split search.
//
// Deprecated: ignored; hist is the only engine.
const SplitHist SplitAlgo = 2

// DefaultMaxBins is the bin budget used when a caller passes maxBins <= 0:
// the largest count addressable by a uint8 code.
const DefaultMaxBins = 256

// Binned is a feature matrix quantized for histogram training: one uint8
// bin code per cell plus, per feature, the float thresholds separating
// adjacent bins. It is immutable after Bin and safe to share across
// concurrent tree fits (a forest's trees, GBT rounds, and every model that
// consumes the same training matrix).
type Binned struct {
	// Codes is the n x f row-major code matrix; Codes[i*F+j] < Bins[j].
	Codes []uint8
	// N and F are the instance and feature counts.
	N, F int
	// Bins[j] is the number of bins of feature j (1..maxBins).
	Bins []int
	// Thresholds[j] holds Bins[j]-1 ascending split values: code <= b on
	// feature j is equivalent to x <= Thresholds[j][b] on the raw floats,
	// for every value seen at binning time.
	Thresholds [][]float64
}

// Bytes is the memory the binned payload occupies (codes + thresholds),
// used for cache accounting.
func (bn *Binned) Bytes() int64 {
	total := int64(len(bn.Codes))
	for _, t := range bn.Thresholds {
		total += int64(len(t)) * 8
	}
	total += int64(len(bn.Bins)) * 8
	return total
}

// Bin quantizes X (n x f, row-major, NaN-free) into at most maxBins bins
// per column (<= 0 selects DefaultMaxBins, values above 256 are clamped —
// codes must fit a uint8). Cut points sit at weighted quantiles of the
// column distribution (w nil = uniform): columns with at most maxBins
// distinct values keep every distinct value in its own bin, so small or
// categorical-like columns lose nothing to quantization.
func Bin(x []float64, n, f int, w []float64, maxBins int) (*Binned, error) {
	return BinWorkers(x, n, f, w, maxBins, 1)
}

// BinWorkers is Bin with column-parallel quantization (workers <= 0 means
// GOMAXPROCS): columns are independent, so the result is bit-identical at
// any worker count. FitForest routes its worker budget here — binning is
// the fit's only serial phase, and leaving it sequential would bound the
// ensemble's parallel speedup.
func BinWorkers(x []float64, n, f int, w []float64, maxBins, workers int) (*Binned, error) {
	if n <= 0 || f <= 0 || len(x) != n*f {
		return nil, fmt.Errorf("mltree: bad shapes: %d values for %dx%d", len(x), n, f)
	}
	if w != nil && len(w) != n {
		return nil, fmt.Errorf("mltree: %d weights for %d instances", len(w), n)
	}
	if maxBins <= 0 {
		maxBins = DefaultMaxBins
	}
	if maxBins > 256 {
		maxBins = 256
	}
	bn := &Binned{
		Codes:      make([]uint8, n*f),
		N:          n,
		F:          f,
		Bins:       make([]int, f),
		Thresholds: make([][]float64, f),
	}
	workers = parallel.Workers(workers, f)
	chunk := (f + workers - 1) / workers
	err := parallel.For(workers, workers, func(wi int) error {
		vals := make([]float64, n)
		var order []int32
		if w != nil {
			// Weighted cuts need each sorted element's weight, so the sort
			// carries row indices in tandem; the uniform path sorts bare
			// values (cheaper) because only counts matter.
			order = make([]int32, n)
		}
		hi := (wi + 1) * chunk
		if hi > f {
			hi = f
		}
		for feat := wi * chunk; feat < hi; feat++ {
			if err := binColumn(x, n, f, feat, w, maxBins, vals, order, bn); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return bn, nil
}

// binColumn quantizes one column into bn (its own Codes stripe, Bins and
// Thresholds entries — disjoint from every other column's, so columns bin
// concurrently).
func binColumn(x []float64, n, f, feat int, w []float64, maxBins int, vals []float64, order []int32, bn *Binned) error {
	for i := 0; i < n; i++ {
		v := x[i*f+feat]
		if math.IsNaN(v) {
			return fmt.Errorf("mltree: NaN in feature %d (binning requires the NaN-free contract)", feat)
		}
		vals[i] = v
	}
	if w != nil {
		for i := range order {
			order[i] = int32(i)
		}
		sortPairsByVal(vals, order)
	} else {
		// Bare values sort with stdlib pdqsort: the interface-call overhead
		// that justifies the hand-rolled pair sort does not apply here.
		slices.Sort(vals)
	}
	thresholds := binThresholds(vals, order, w, maxBins)
	bn.Bins[feat] = len(thresholds) + 1
	bn.Thresholds[feat] = thresholds
	for i := 0; i < n; i++ {
		bn.Codes[i*f+feat] = uint8(searchThresholds(thresholds, x[i*f+feat]))
	}
	return nil
}

// binThresholds computes one sorted column's cut points. Columns with at
// most maxBins distinct values cut between every adjacent pair
// (quantization-free); larger columns cut at weighted quantiles — the
// current bin closes at the first value change past its quantile of the
// remaining mass, re-spreading the bin budget so heavy repeated values
// cannot starve the tail of the distribution. order is the sort
// permutation, needed only for the weighted (w != nil) path.
func binThresholds(vals []float64, order []int32, w []float64, maxBins int) []float64 {
	n := len(vals)
	distinct := 1
	for i := 1; i < n; i++ {
		if vals[i] != vals[i-1] {
			distinct++
		}
	}
	var thresholds []float64
	if distinct <= maxBins {
		thresholds = make([]float64, 0, distinct-1)
		for i := 1; i < n; i++ {
			if vals[i] != vals[i-1] {
				thresholds = append(thresholds, midpoint(vals[i-1], vals[i]))
			}
		}
		return thresholds
	}
	totalW := float64(n)
	if w != nil {
		totalW = 0
		for _, v := range w {
			totalW += v
		}
		if totalW <= 0 {
			totalW = float64(n)
			w = nil
		}
	}
	bins := 0
	acc := 0.0
	used := 0.0
	for i := 0; i < n; i++ {
		if i > 0 && vals[i] != vals[i-1] && bins < maxBins-1 {
			remainingBins := float64(maxBins - bins)
			target := used + (totalW-used)/remainingBins
			if acc >= target {
				thresholds = append(thresholds, midpoint(vals[i-1], vals[i]))
				bins++
				used = acc
			}
		}
		if w != nil {
			acc += w[int(order[i])]
		} else {
			acc++
		}
	}
	return thresholds
}

// searchThresholds returns v's bin code: the first threshold index with
// thresholds[i] >= v (bins are "x <= threshold goes left"), i.e. a plain
// lower-bound binary search.
func searchThresholds(thresholds []float64, v float64) int {
	lo, hi := 0, len(thresholds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if thresholds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// midpoint returns the split threshold between adjacent values lo < hi:
// the halfway point, clamped back to lo when rounding would reach hi, so
// x <= threshold cleanly separates the two.
func midpoint(lo, hi float64) float64 {
	m := lo + (hi-lo)/2
	if m >= hi {
		return lo
	}
	return m
}

// FitTreeBinned grows a CART classifier on a pre-binned matrix: labels y
// in [0, numClasses), optional sample weights w (nil = uniform). The split
// search scans bin boundaries, so thresholds are the binner's cut points.
func FitTreeBinned(bn *Binned, y []int, w []float64, numClasses int, cfg Config, rng *randx.RNG) (*Tree, error) {
	n, f := bn.N, bn.F
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
	maxNB := 0
	for _, nb := range bn.Bins {
		if nb > maxNB {
			maxNB = nb
		}
	}
	b := &hbuilder{
		bn: bn, y: y, w: w,
		numClasses: numClasses, cfg: cfg, rng: rng,
		minWeight: cfg.MinWeightFraction * totalW,
		totalW:    totalW,
		tree:      t,
		binOffset: binOffsets(bn),
		classW:    make([]float64, numClasses),
		leftW:     make([]float64, numClasses),
		maxNB:     maxNB,
		sampler:   newFeatureSampler(f),
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	// Chain mode pays for full-F histograms only when most features are
	// candidates at every split; otherwise start (and stay) in direct mode.
	var hist []float64
	if 2*b.featureCount() >= f {
		hist = b.newHist()
		b.accumulate(hist, idx)
	}
	b.grow(idx, 0, hist)
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

// featureSampler draws random feature subsets for the hist builders. It
// mirrors randx.RNG.SampleWithoutReplacement draw-for-draw — a partial
// Fisher-Yates whose swaps are undone after every sample, so the persistent
// permutation is the identity at each call — but without that method's
// per-call map and slice allocations, which dominate at thousands of nodes
// per tree.
type featureSampler struct {
	perm []int32
	js   []int32
	out  []int
}

func newFeatureSampler(f int) *featureSampler {
	perm := make([]int32, f)
	for i := range perm {
		perm[i] = int32(i)
	}
	return &featureSampler{perm: perm}
}

// sample returns k distinct features; the result is valid until the next
// call.
func (s *featureSampler) sample(rng *randx.RNG, k int) []int {
	n := len(s.perm)
	if cap(s.out) < k {
		s.out = make([]int, k)
		s.js = make([]int32, k)
	}
	out, js := s.out[:k], s.js[:k]
	for i := 0; i < k; i++ {
		j := i + rng.IntN(n-i)
		js[i] = int32(j)
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
		out[i] = int(s.perm[i])
	}
	for i := k - 1; i >= 0; i-- {
		j := js[i]
		s.perm[i], s.perm[j] = s.perm[j], s.perm[i]
	}
	return out
}

// binOffsets returns the per-feature start of a flat histogram laid out as
// one slot per (feature, bin); the last element is the total bin count.
func binOffsets(bn *Binned) []int {
	off := make([]int, bn.F+1)
	for j, nb := range bn.Bins {
		off[j+1] = off[j] + nb
	}
	return off
}

// hbuilder grows one classification tree with histogram split search.
type hbuilder struct {
	bn         *Binned
	y          []int
	w          []float64
	numClasses int
	cfg        Config
	rng        *randx.RNG
	minWeight  float64
	totalW     float64
	tree       *Tree

	// binOffset[j] is feature j's start in a flat histogram; the histogram
	// entry for (feature j, bin b, class c) lives at
	// (binOffset[j]+b)*numClasses + c.
	binOffset []int
	// histPool recycles chain-mode histogram buffers: at most O(log n) are
	// live at a time because a fresh buffer is only ever needed for the
	// smaller child.
	histPool [][]float64
	// classW and leftW are per-node class-weight scratch, reused across
	// grow calls (a node never touches them after recursing).
	classW []float64
	leftW  []float64
	// Direct-mode scratch: every candidate feature's histogram, filled in
	// one row-major pass per node (rows are contiguous in Codes, so this
	// touches each row's cache lines once where a per-column gather would
	// touch them once per candidate). Slots are cleared lazily —
	// dirStamp[slot] != stamp marks a stale slot — and dirLo/dirHi bound
	// each candidate's occupied code range so small nodes never pay a full
	// clear or scan of the bin budget.
	maxNB    int
	dirSlot  []float64
	dirStamp []uint32
	dirLo    []int32
	dirHi    []int32
	stamp    uint32
	sampler  *featureSampler
}

func (b *hbuilder) newHist() []float64 {
	if k := len(b.histPool); k > 0 {
		h := b.histPool[k-1]
		b.histPool = b.histPool[:k-1]
		for i := range h {
			h[i] = 0
		}
		return h
	}
	return make([]float64, b.binOffset[len(b.binOffset)-1]*b.numClasses)
}

func (b *hbuilder) freeHist(h []float64) { b.histPool = append(b.histPool, h) }

// accumulate adds the class-weight histogram of every feature over the
// node's instances — the O(m x F) half of the engine. The inner loop walks
// one row of codes sequentially, so it is cache-friendly where per-column
// gathers are not.
func (b *hbuilder) accumulate(hist []float64, idx []int32) {
	f := b.bn.F
	c := b.numClasses
	for _, i := range idx {
		row := b.bn.Codes[int(i)*f : int(i)*f+f]
		wy := b.w[i]
		cls := b.y[i]
		for j, code := range row {
			hist[(b.binOffset[j]+int(code))*c+cls] += wy
		}
	}
}

// grow builds the subtree over idx. hist is the node's own full-F
// histogram in chain mode, nil in direct mode. Chain children derive their
// histograms by accumulating only the smaller side and subtracting it from
// hist in place for the larger; a node whose split is too skewed for the
// chain to pay drops its subtree to direct mode. Hist buffers are recycled
// once their subtree is built.
func (b *hbuilder) grow(idx []int32, depth int, hist []float64) int32 {
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
		if hist != nil {
			b.freeHist(hist)
		}
		b.tree.nodes = append(b.tree.nodes, node{feature: -1, probs: probs})
		return int32(len(b.tree.nodes) - 1)
	}

	if impurity == 0 || nodeW < b.minWeight || len(idx) < 2 ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return leaf()
	}

	var feat, binCut int
	var thr, decrease float64
	if hist != nil {
		feat, binCut, thr, decrease = b.bestSplit(hist, classW, nodeW, impurity)
	} else {
		feat, binCut, thr, decrease = b.bestSplitDirect(idx, classW, nodeW, impurity)
	}
	if feat < 0 || decrease <= b.cfg.MinImpurityDecrease {
		return leaf()
	}

	// Partition idx by bin code; code <= binCut is exactly x <= thr on the
	// training data by the binner's threshold construction.
	lo, hi := 0, len(idx)
	f := b.bn.F
	for lo < hi {
		if int(b.bn.Codes[int(idx[lo])*f+feat]) <= binCut {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo == 0 || lo == len(idx) {
		return leaf() // degenerate split (possible only via zero-weight rows)
	}

	b.tree.importances[feat] += nodeW / b.totalW * decrease

	self := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node{feature: int32(feat), threshold: thr})

	left, right := idx[:lo], idx[lo:]
	small := left
	if len(right) < len(left) {
		small = right
	}
	// Keep the subtraction chain only while accumulating the smaller child
	// over all F features undercuts the children re-accumulating their own
	// candidates; a too-skewed split drops the subtree to direct mode.
	var smallHist []float64
	if hist != nil {
		if b.bn.F*len(small) <= b.featureCount()*len(idx) {
			smallHist = b.newHist()
			b.accumulate(smallHist, small)
			// The parent's buffer becomes the larger child's histogram.
			for i, v := range smallHist {
				hist[i] -= v
			}
		} else {
			b.freeHist(hist)
			hist = nil
		}
	}
	var leftIdx, rightIdx int32
	if len(right) < len(left) {
		rightIdx = b.grow(right, depth+1, smallHist)
		leftIdx = b.grow(left, depth+1, hist)
	} else {
		leftIdx = b.grow(left, depth+1, smallHist)
		rightIdx = b.grow(right, depth+1, hist)
	}
	b.tree.nodes[self].left = leftIdx
	b.tree.nodes[self].right = rightIdx
	return self
}

// bestSplit scans a random feature subset's bin boundaries for the largest
// weighted Gini decrease. Returns feature -1 when no valid split exists;
// otherwise the winning feature, its bin cut (codes <= cut go left) and the
// float threshold implementing the same cut on raw features.
func (b *hbuilder) bestSplit(hist, classW []float64, nodeW, impurity float64) (int, int, float64, float64) {
	nFeat := b.featureCount()
	features := b.sampler.sample(b.rng, nFeat)
	c := b.numClasses

	bestFeat, bestCut, bestDec := -1, 0, 0.0
	bestThr := 0.0
	leftW := b.leftW
	for _, feat := range features {
		nb := b.bn.Bins[feat]
		if nb < 2 {
			continue // constant column
		}
		base := b.binOffset[feat]
		for k := range leftW {
			leftW[k] = 0
		}
		wl := 0.0
		for bin := 0; bin < nb-1; bin++ {
			slot := hist[(base+bin)*c : (base+bin)*c+c]
			for k, v := range slot {
				leftW[k] += v
				wl += v
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
				bestCut = bin
				bestThr = b.bn.Thresholds[feat][bin]
			}
		}
	}
	return bestFeat, bestCut, bestThr, bestDec
}

// bestSplitDirect is the direct-mode search: all candidate features'
// histograms are accumulated in one row-major pass over the node, then
// each candidate's occupied code range is scanned for the best boundary.
// Empty bins are skipped by stamp — their boundaries would only repeat the
// previous decrease, which the strict comparison never re-selects, so the
// sparse scan picks exactly the split a dense scan would.
func (b *hbuilder) bestSplitDirect(idx []int32, classW []float64, nodeW, impurity float64) (int, int, float64, float64) {
	nFeat := b.featureCount()
	features := b.sampler.sample(b.rng, nFeat)
	c := b.numClasses
	f := b.bn.F

	if len(b.dirStamp) < nFeat*b.maxNB {
		b.dirSlot = make([]float64, nFeat*b.maxNB*c)
		b.dirStamp = make([]uint32, nFeat*b.maxNB)
		b.dirLo = make([]int32, nFeat)
		b.dirHi = make([]int32, nFeat)
	}
	b.stamp++
	stamp := b.stamp
	for k := 0; k < nFeat; k++ {
		b.dirLo[k] = int32(b.maxNB)
		b.dirHi[k] = 0
	}
	for _, i := range idx {
		row := b.bn.Codes[int(i)*f : int(i)*f+f]
		wi := b.w[i]
		cls := b.y[i]
		for k, feat := range features {
			code := int32(row[feat])
			si := k*b.maxNB + int(code)
			if b.dirStamp[si] != stamp {
				b.dirStamp[si] = stamp
				s := si * c
				for q := 0; q < c; q++ {
					b.dirSlot[s+q] = 0
				}
				if code < b.dirLo[k] {
					b.dirLo[k] = code
				}
				if code > b.dirHi[k] {
					b.dirHi[k] = code
				}
			}
			b.dirSlot[si*c+cls] += wi
		}
	}
	if c == 2 {
		return b.scanDirect2(features, classW, nodeW, impurity, stamp)
	}

	bestFeat, bestCut, bestDec := -1, 0, 0.0
	bestThr := 0.0
	leftW := b.leftW
	for k, feat := range features {
		lo, hi := int(b.dirLo[k]), int(b.dirHi[k])
		if lo >= hi {
			continue // constant within this node
		}
		for q := range leftW {
			leftW[q] = 0
		}
		wl := 0.0
		base := k * b.maxNB
		for bin := lo; bin < hi; bin++ {
			si := base + bin
			if b.dirStamp[si] != stamp {
				continue // empty bin
			}
			s := si * c
			for q := 0; q < c; q++ {
				v := b.dirSlot[s+q]
				leftW[q] += v
				wl += v
			}
			wr := nodeW - wl
			if wl <= 0 || wr <= 0 {
				continue
			}
			gl := gini(leftW, wl)
			gr := giniComplement(classW, leftW, wr)
			dec := impurity - (wl*gl+wr*gr)/nodeW
			if dec > bestDec {
				bestDec, bestFeat, bestCut = dec, feat, bin
				bestThr = b.bn.Thresholds[feat][bin]
			}
		}
	}
	return bestFeat, bestCut, bestThr, bestDec
}

// scanDirect2 is the binary-classification boundary scan: class weights
// stay in scalar registers and the two Gini terms collapse to
// dec = impurity - 1 + ((l0²+l1²)/wl + (r0²+r1²)/wr)/nodeW, so the scan
// maximises the bracketed score and materialises the decrease once at the
// end. Algebraically identical to the generic path up to the usual float
// reassociation; the stack's classifiers are all binary, so this is the
// split search they actually run.
func (b *hbuilder) scanDirect2(features []int, classW []float64, nodeW, impurity float64, stamp uint32) (int, int, float64, float64) {
	c0, c1 := classW[0], classW[1]
	bestFeat, bestCut := -1, 0
	bestThr := 0.0
	// score > bestScore  <=>  dec > bestDec with dec = impurity - 1 + score/nodeW;
	// seed at dec = 0 so only strictly positive decreases win.
	bestScore := (1 - impurity) * nodeW
	startScore := bestScore
	for k, feat := range features {
		lo, hi := int(b.dirLo[k]), int(b.dirHi[k])
		if lo >= hi {
			continue // constant within this node
		}
		var l0, l1 float64
		base := k * b.maxNB
		for bin := lo; bin < hi; bin++ {
			si := base + bin
			if b.dirStamp[si] != stamp {
				continue // empty bin
			}
			l0 += b.dirSlot[si*2]
			l1 += b.dirSlot[si*2+1]
			wl := l0 + l1
			wr := nodeW - wl
			if wl <= 0 || wr <= 0 {
				continue
			}
			r0, r1 := c0-l0, c1-l1
			score := (l0*l0+l1*l1)/wl + (r0*r0+r1*r1)/wr
			if score > bestScore {
				bestScore, bestFeat, bestCut = score, feat, bin
				bestThr = b.bn.Thresholds[feat][bin]
			}
		}
	}
	if bestFeat < 0 || bestScore <= startScore {
		return -1, 0, 0, 0
	}
	return bestFeat, bestCut, bestThr, impurity - 1 + bestScore/nodeW
}

func (b *hbuilder) featureCount() int { return featureCountFor(b.cfg, b.bn.F) }

// FitForestBinned grows a random forest on a pre-binned matrix: the
// matrix is quantized once (by the caller) and shared by every tree, and
// each tree's RNG is keyed by its index so the forest is identical at any
// worker count.
func FitForestBinned(bn *Binned, y []int, w []float64, numClasses int, cfg ForestConfig) (*Forest, error) {
	if cfg.NumTrees < 1 {
		return nil, fmt.Errorf("mltree: forest needs at least 1 tree")
	}
	n := bn.N
	// Uniform weights are read-only: one shared allocation serves every
	// tree instead of one per tree inside the fit.
	if w == nil && !cfg.Bootstrap {
		w = uniformWeights(n)
	}
	trees := make([]*Tree, cfg.NumTrees)
	err := parallel.For(cfg.Workers, cfg.NumTrees, func(ti int) error {
		rng := randx.DeriveIndexed(cfg.Seed, 0x7ee5, "tree", ti)
		wi := w
		if cfg.Bootstrap {
			wi = bootstrapWeights(rng, n, w)
		}
		var err error
		trees[ti], err = FitTreeBinned(bn, y, wi, numClasses, cfg.Tree, rng)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Forest{Trees: trees, NumFeatures: bn.F, NumClasses: numClasses}, nil
}

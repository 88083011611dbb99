package mltree

import (
	"fmt"
	"math"

	"repro/internal/randx"
)

// Histogram engine for regression trees and gradient boosting: per-bin
// accumulators are (weight, weight*target, count) triples — the count is
// needed because MinSamplesLeaf bounds instances, not weight — with the
// same adaptive chain/direct strategy split as the classification builder
// (chain: full-F histograms plus parent-minus-sibling subtraction; direct:
// per-candidate sparse/dense accumulation, the usual shape under the
// sqrt-feature boosting rule). Boosting reuses one quantization across
// every round (targets change per round, codes never do), and because
// growth partitions every training row the builder hands back each row's
// leaf assignment, turning the Newton step and margin update into O(1)
// array lookups instead of per-row tree traversals.

const rhistStride = 3 // (sumW, sumWY, count) per bin

// FitRegressionTreeBinned fits a regression tree with the histogram engine
// on a pre-binned matrix; semantics follow FitRegressionTree.
func FitRegressionTreeBinned(bn *Binned, targets, w []float64, cfg RegressionConfig, rng *randx.RNG) (*RegressionTree, error) {
	return fitRegressionTreeBinned(bn, targets, w, cfg, rng, nil)
}

// fitRegressionTreeBinned optionally records, in leafOf (len N), the dense
// leaf index every training row lands in — the boosting loop consumes it.
func fitRegressionTreeBinned(bn *Binned, targets, w []float64, cfg RegressionConfig, rng *randx.RNG, leafOf []int32) (*RegressionTree, error) {
	n := bn.N
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
	t := &RegressionTree{NumFeatures: bn.F}
	maxNB := 0
	for _, nb := range bn.Bins {
		if nb > maxNB {
			maxNB = nb
		}
	}
	b := &rhbuilder{
		bn: bn, y: targets, w: w, cfg: cfg, rng: rng, tree: t,
		binOffset: binOffsets(bn),
		leafOf:    leafOf,
		maxNB:     maxNB,
		sampler:   newFeatureSampler(bn.F),
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	// Chain mode pays for full-F histograms only when most features are
	// candidates at every split; otherwise start (and stay) in direct mode.
	var hist []float64
	if 2*b.featureCount() >= bn.F {
		hist = b.newHist()
		b.accumulate(hist, idx)
	}
	b.grow(idx, 0, hist)
	return t, nil
}

// rhbuilder grows one regression tree with histogram split search.
type rhbuilder struct {
	bn   *Binned
	y    []float64
	w    []float64
	cfg  RegressionConfig
	rng  *randx.RNG
	tree *RegressionTree

	binOffset []int
	histPool  [][]float64
	leaves    int32
	leafOf    []int32 // nil unless the caller wants row -> leaf
	// Direct-mode scratch (see hbuilder): all candidate features'
	// histograms, row-major accumulation, lazily cleared stamp-tracked
	// slots, occupied-range bounds per candidate.
	maxNB    int
	dirSlot  []float64
	dirStamp []uint32
	dirLo    []int32
	dirHi    []int32
	stamp    uint32
	sampler  *featureSampler
}

func (b *rhbuilder) featureCount() int {
	return featureCountFor(Config{Rule: b.cfg.Rule, Fraction: b.cfg.Fraction}, b.bn.F)
}

func (b *rhbuilder) newHist() []float64 {
	if k := len(b.histPool); k > 0 {
		h := b.histPool[k-1]
		b.histPool = b.histPool[:k-1]
		for i := range h {
			h[i] = 0
		}
		return h
	}
	return make([]float64, b.binOffset[len(b.binOffset)-1]*rhistStride)
}

func (b *rhbuilder) freeHist(h []float64) { b.histPool = append(b.histPool, h) }

func (b *rhbuilder) accumulate(hist []float64, idx []int32) {
	f := b.bn.F
	for _, i := range idx {
		row := b.bn.Codes[int(i)*f : int(i)*f+f]
		wi := b.w[i]
		wy := wi * b.y[i]
		for j, code := range row {
			s := (b.binOffset[j] + int(code)) * rhistStride
			hist[s] += wi
			hist[s+1] += wy
			hist[s+2]++
		}
	}
}

func (b *rhbuilder) grow(idx []int32, depth int, hist []float64) int32 {
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
		if b.leafOf != nil {
			for _, i := range idx {
				b.leafOf[i] = id
			}
		}
		if hist != nil {
			b.freeHist(hist)
		}
		b.tree.nodes = append(b.tree.nodes, rnode{feature: -1, value: mean, leafID: id})
		return int32(len(b.tree.nodes) - 1)
	}
	if len(idx) < 2*b.cfg.MinSamplesLeaf || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) || sw <= 0 {
		return leaf()
	}
	var feat, binCut int
	var thr float64
	var ok bool
	if hist != nil {
		feat, binCut, thr, ok = b.bestSplit(hist, len(idx), sw, swy)
	} else {
		feat, binCut, thr, ok = b.bestSplitDirect(idx, sw, swy)
	}
	if !ok {
		return leaf()
	}
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
	if lo < b.cfg.MinSamplesLeaf || len(idx)-lo < b.cfg.MinSamplesLeaf {
		return leaf()
	}
	self := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, rnode{feature: int32(feat), threshold: thr, leafID: -1})

	left, right := idx[:lo], idx[lo:]
	small := left
	if len(right) < len(left) {
		small = right
	}
	// Chain/direct handoff mirrors hbuilder.grow: subtract only while the
	// smaller child's full-F accumulation undercuts direct re-accumulation.
	var smallHist []float64
	if hist != nil {
		if b.bn.F*len(small) <= b.featureCount()*len(idx) {
			smallHist = b.newHist()
			b.accumulate(smallHist, small)
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

// bestSplitDirect is the direct-mode counterpart of bestSplit: candidate
// features accumulate their own histograms on demand, sparsely for nodes
// smaller than the feature's bin count (see hbuilder.bestSplitDirect for
// the equivalence argument).
func (b *rhbuilder) bestSplitDirect(idx []int32, totalW, totalWY float64) (int, int, float64, bool) {
	nFeat := b.featureCount()
	features := b.sampler.sample(b.rng, nFeat)
	f := b.bn.F
	m := len(idx)

	if len(b.dirStamp) < nFeat*b.maxNB {
		b.dirSlot = make([]float64, nFeat*b.maxNB*rhistStride)
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
		wy := wi * b.y[i]
		for k, feat := range features {
			code := int32(row[feat])
			si := k*b.maxNB + int(code)
			if b.dirStamp[si] != stamp {
				b.dirStamp[si] = stamp
				s := si * rhistStride
				b.dirSlot[s] = 0
				b.dirSlot[s+1] = 0
				b.dirSlot[s+2] = 0
				if code < b.dirLo[k] {
					b.dirLo[k] = code
				}
				if code > b.dirHi[k] {
					b.dirHi[k] = code
				}
			}
			s := si * rhistStride
			b.dirSlot[s] += wi
			b.dirSlot[s+1] += wy
			b.dirSlot[s+2]++
		}
	}

	bestGain, bestFeat, bestCut, bestThr := 0.0, -1, 0, 0.0
	baseScore := totalWY * totalWY / totalW
	for k, feat := range features {
		lo, hi := int(b.dirLo[k]), int(b.dirHi[k])
		if lo >= hi {
			continue // constant within this node
		}
		var wl, wyl float64
		nl := 0
		base := k * b.maxNB
		for bin := lo; bin < hi; bin++ {
			si := base + bin
			if b.dirStamp[si] != stamp {
				continue // empty bin
			}
			s := si * rhistStride
			wl += b.dirSlot[s]
			wyl += b.dirSlot[s+1]
			nl += int(b.dirSlot[s+2])
			if nl < b.cfg.MinSamplesLeaf || m-nl < b.cfg.MinSamplesLeaf {
				continue
			}
			wr := totalW - wl
			if wl <= 0 || wr <= 0 {
				continue
			}
			wyr := totalWY - wyl
			gain := wyl*wyl/wl + wyr*wyr/wr - baseScore
			if gain > bestGain {
				bestGain, bestFeat, bestCut = gain, feat, bin
				bestThr = b.bn.Thresholds[feat][bin]
			}
		}
	}
	return bestFeat, bestCut, bestThr, bestFeat >= 0 && bestGain > 1e-12
}

// bestSplit maximises the weighted SSE reduction over a random feature
// subset's bin boundaries, honouring MinSamplesLeaf via the per-bin counts.
func (b *rhbuilder) bestSplit(hist []float64, m int, totalW, totalWY float64) (int, int, float64, bool) {
	nFeat := b.featureCount()
	features := b.sampler.sample(b.rng, nFeat)

	bestGain, bestFeat, bestCut, bestThr := 0.0, -1, 0, 0.0
	baseScore := totalWY * totalWY / totalW
	for _, feat := range features {
		nb := b.bn.Bins[feat]
		if nb < 2 {
			continue
		}
		base := b.binOffset[feat]
		var wl, wyl float64
		nl := 0
		for bin := 0; bin < nb-1; bin++ {
			s := (base + bin) * rhistStride
			wl += hist[s]
			wyl += hist[s+1]
			nl += int(hist[s+2])
			if nl < b.cfg.MinSamplesLeaf || m-nl < b.cfg.MinSamplesLeaf {
				continue
			}
			wr := totalW - wl
			if wl <= 0 || wr <= 0 {
				continue
			}
			wyr := totalWY - wyl
			gain := wyl*wyl/wl + wyr*wyr/wr - baseScore
			if gain > bestGain {
				bestGain, bestFeat, bestCut = gain, feat, bin
				bestThr = b.bn.Thresholds[feat][bin]
			}
		}
	}
	return bestFeat, bestCut, bestThr, bestFeat >= 0 && bestGain > 1e-12
}

// FitGBTBinned trains a boosted classifier with the histogram engine on a
// pre-binned matrix: one quantization serves all rounds, and per-round leaf
// assignments come from the growth partition instead of tree traversals.
// Semantics follow FitGBT (logistic loss, Newton leaf steps, shrinkage,
// stochastic subsampling).
func FitGBTBinned(bn *Binned, y []int, w []float64, cfg GBTConfig) (*GBT, error) {
	n := bn.N
	if len(y) != n {
		return nil, fmt.Errorf("mltree: %d labels for %d instances", len(y), n)
	}
	if cfg.Rounds < 1 || cfg.Shrinkage <= 0 {
		return nil, fmt.Errorf("mltree: bad GBT config %+v", cfg)
	}
	if cfg.SubsampleFraction <= 0 || cfg.SubsampleFraction > 1 {
		cfg.SubsampleFraction = 1
	}
	if w == nil {
		w = uniformWeights(n)
	} else if len(w) != n {
		return nil, fmt.Errorf("mltree: %d weights for %d instances", len(w), n)
	}
	var wpos, wtot float64
	for i, c := range y {
		if c != 0 && c != 1 {
			return nil, fmt.Errorf("mltree: GBT labels must be binary, got %d", c)
		}
		if c == 1 {
			wpos += w[i]
		}
		wtot += w[i]
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
	treeCfg := RegressionConfig{
		MaxDepth: cfg.MaxDepth, MinSamplesLeaf: cfg.MinSamplesLeaf,
		Rule: SqrtFeatures,
	}
	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			p := sigmoid(raw[i])
			residual[i] = float64(y[i]) - p
			if cfg.SubsampleFraction < 1 && !rng.Bool(cfg.SubsampleFraction) {
				subW[i] = 0
			} else {
				subW[i] = w[i]
			}
		}
		tree, err := fitRegressionTreeBinned(bn, residual, subW, treeCfg, rng.Derive("stage"), leafOf)
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

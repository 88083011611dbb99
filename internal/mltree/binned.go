package mltree

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/mmapfile"
	"repro/internal/parallel"
	"repro/internal/randx"
)

// This file is the training engine (LightGBM-style), the only split
// search there is: a binner (BinFill) that quantizes a feature matrix once
// into at most 256 uint8 bins per column, reading it a stripe of columns
// at a time so the float matrix is never held whole, and histogram-based
// split searches for the classification builder that scan O(bins)
// boundaries per candidate feature instead of sorting the node's values.
// Bin thresholds are placed at midpoints between adjacent bin extremes, so
// a tree grown on bin codes applies unchanged to raw float features at
// predict time, and a feature never carries more than DefaultMaxBins-1
// distinct thresholds — the most one code column of the flat layout holds.
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
// paper's Tree model evaluates 80% of features per split). Chain
// histograms live outside the Go heap, in anonymous mappings that last one
// fit. In direct mode, each node accumulates only its own candidate
// features, sparsely (lazily cleared slots, touched-bin tracking) when the
// node is smaller than the bin budget — the right shape for sqrt-feature
// forests and boosting, where full-F histograms would mostly go unscanned.
// The strategy choice is a pure function of node sizes and the feature
// rule — never of scheduling — so a fit is reproducible at any worker
// count.

// SplitAlgo once selected between two split searches.
//
// Deprecated: ignored; hist is the only engine.
type SplitAlgo uint8

// SplitHist named the histogram split search.
//
// Deprecated: ignored; hist is the only engine.
const SplitHist SplitAlgo = 2

// SetBinCacheBytes once bounded a process-wide quantization cache.
//
// Deprecated: a no-op; Bin keeps no cache.
func SetBinCacheBytes(int64) {}

// DefaultMaxBins is the bin budget of every column: the largest count
// addressable by a uint8 code.
const DefaultMaxBins = 256

// Binned is a feature matrix quantized for histogram training: one uint8
// bin code per cell plus, per feature, the float thresholds separating
// adjacent bins. It is immutable after BinFill and safe to share across
// concurrent tree fits (a forest's trees, GBT rounds, and every model that
// consumes the same training matrix).
type Binned struct {
	// Codes is the n x f row-major code matrix; Codes[i*F+j] < Bins[j].
	Codes []uint8
	// N and F are the instance and feature counts.
	N, F int
	// Bins[j] is the number of bins of feature j (1..DefaultMaxBins).
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

// binStripeCols is how many columns the binner asks its fill for at a
// time. The stripe is held transposed, one contiguous column of n rows
// each, so a build's float scratch is n x binStripeCols values, never the
// n x f matrix, and a column's sort reads contiguous memory.
const binStripeCols = 256

// Bin quantizes X (n x f, row-major, NaN-free) with BinFill, copying its
// stripes out of x: a matrix already in memory, as tests and benchmarks
// hold. Training builds fill their stripes from the feature extractors
// instead and never build X.
func Bin(x []float64, n, f, workers int) (*Binned, error) {
	if len(x) != n*f {
		return nil, fmt.Errorf("mltree: bad shapes: %d values for %dx%d", len(x), n, f)
	}
	return BinFill(n, f, workers, func(i, c0 int, out []float64) { copy(out, x[i*f+c0:]) })
}

// BinFill quantizes an n x f NaN-free matrix into at most DefaultMaxBins
// bins per column, cut at uniform quantiles of the column distribution:
// columns with at most DefaultMaxBins distinct values keep every distinct
// value in its own bin, so small or categorical-like columns lose nothing
// to quantization. The matrix is never materialised: fill(i, c0, out)
// writes columns [c0, c0+len(out)) of row i into out, and BinFill asks for
// one stripe of at most binStripeCols columns of every row at a time,
// bins the stripe and reuses its buffer for the next. fill runs
// concurrently for distinct rows. Rows fill, and columns bin, on up to
// workers goroutines (<= 0 means GOMAXPROCS); the result is bit-identical
// at any worker count.
func BinFill(n, f, workers int, fill func(i, c0 int, out []float64)) (*Binned, error) {
	if n <= 0 || f <= 0 {
		return nil, fmt.Errorf("mltree: bad shapes: %dx%d", n, f)
	}
	bn := &Binned{
		Codes:      make([]uint8, n*f),
		N:          n,
		F:          f,
		Bins:       make([]int, f),
		Thresholds: make([][]float64, f),
	}
	const maxCuts = DefaultMaxBins - 1
	width := min(f, binStripeCols)
	workers = parallel.Workers(workers, max(n, width))
	stripe := make([]float64, n*width)     // stripe column k at stripe[k*n:]
	cuts := make([]float64, width*maxCuts) // its cut points at cuts[k*maxCuts:]
	counts := make([]int, width)           // and their count
	rows := make([]float64, workers*width) // worker wi's row at rows[wi*width:]
	vals := make([]float64, workers*n)     // worker wi's sort buffer at vals[wi*n:]
	rowChunk := (n + workers - 1) / workers
	for c0 := 0; c0 < f; c0 += width {
		s := min(width, f-c0)
		// Filling cannot fail: fill returns nothing and the task returns nil.
		_ = parallel.For(workers, workers, func(wi int) error {
			row := rows[wi*width : wi*width+s]
			for i := wi * rowChunk; i < min(n, (wi+1)*rowChunk); i++ {
				fill(i, c0, row)
				for k, v := range row {
					stripe[k*n+i] = v
				}
			}
			return nil
		})
		colChunk := (s + workers - 1) / workers
		err := parallel.For(workers, workers, func(wi int) error {
			for k := wi * colChunk; k < min(s, (wi+1)*colChunk); k++ {
				var err error
				counts[k], err = binColumn(stripe[k*n:(k+1)*n], vals[wi*n:(wi+1)*n], cuts[k*maxCuts:(k+1)*maxCuts], c0+k, bn)
				if err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// The stripe's cut points move into one exactly sized slab.
		total := 0
		for _, c := range counts[:s] {
			total += c
		}
		slab := make([]float64, total)
		for k, c := range counts[:s] {
			copy(slab, cuts[k*maxCuts:k*maxCuts+c])
			bn.Thresholds[c0+k] = slab[:c:c]
			slab = slab[c:]
		}
	}
	return bn, nil
}

// binColumn quantizes column feat, whose n values are col, into bn (its
// own Codes stripe and Bins entry, disjoint from every other column's, so
// columns bin concurrently). It writes the column's cut points into cuts
// and returns their count; vals is sort scratch of n values.
func binColumn(col, vals, cuts []float64, feat int, bn *Binned) (int, error) {
	for i, v := range col {
		if math.IsNaN(v) {
			return 0, fmt.Errorf("mltree: NaN in feature %d (binning requires the NaN-free contract)", feat)
		}
		vals[i] = v
	}
	slices.Sort(vals)
	k := binThresholds(vals, cuts)
	bn.Bins[feat] = k + 1
	f := bn.F
	for i, v := range col {
		bn.Codes[i*f+feat] = uint8(searchThresholds(cuts[:k], v))
	}
	return k, nil
}

// binThresholds writes one sorted column's cut points into cuts (room for
// DefaultMaxBins-1) and returns their count. Columns with at most
// DefaultMaxBins distinct values cut between every adjacent pair
// (quantization-free); larger columns cut at uniform quantiles — the
// current bin closes at the first value change past its share of the
// remaining rows, re-spreading the bin budget so heavy repeated values
// cannot starve the tail of the distribution.
func binThresholds(vals, cuts []float64) int {
	n := len(vals)
	distinct := 1
	for i := 1; i < n; i++ {
		if vals[i] != vals[i-1] {
			distinct++
		}
	}
	k := 0
	if distinct <= DefaultMaxBins {
		for i := 1; i < n; i++ {
			if vals[i] != vals[i-1] {
				cuts[k] = midpoint(vals[i-1], vals[i])
				k++
			}
		}
		return k
	}
	used := 0
	for i := 1; i < n; i++ {
		if vals[i] != vals[i-1] && k < DefaultMaxBins-1 {
			// The bin closes once its rows reach an equal share of the
			// rows left for the remaining bins.
			remainingBins := float64(DefaultMaxBins - k)
			target := float64(used) + float64(n-used)/remainingBins
			if float64(i) >= target {
				cuts[k] = midpoint(vals[i-1], vals[i])
				k++
				used = i
			}
		}
	}
	return k
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

// checkWeights checks that w holds n sample weights, none negative or
// NaN, and returns their sum.
func checkWeights(w []float64, n int) (float64, error) {
	if len(w) != n {
		return 0, fmt.Errorf("mltree: %d weights for %d instances", len(w), n)
	}
	total := 0.0
	for _, v := range w {
		if v < 0 || math.IsNaN(v) {
			return 0, fmt.Errorf("mltree: invalid weight %v", v)
		}
		total += v
	}
	return total, nil
}

// FitTreeBinned grows a CART classifier on a pre-binned matrix: binary
// labels y (0 or 1), optional sample weights w (nil = uniform). The split
// search scans bin boundaries, so thresholds are the binner's cut points.
func FitTreeBinned(bn *Binned, y []int, w []float64, cfg Config, rng *randx.RNG) (*Tree, error) {
	targets, err := binaryTargets(y, bn.N)
	if err != nil {
		return nil, err
	}
	return growTree(bn, targets, w, cfg, rng, true, nil)
}

// binaryTargets checks that y holds n labels, each 0 or 1, and returns
// them as regression targets.
func binaryTargets(y []int, n int) ([]float64, error) {
	if len(y) != n {
		return nil, fmt.Errorf("mltree: %d labels for %d instances", len(y), n)
	}
	targets := make([]float64, n)
	for i, c := range y {
		if c != 0 && c != 1 {
			return nil, fmt.Errorf("mltree: label %d is not binary (0 or 1)", c)
		}
		targets[i] = float64(c)
	}
	return targets, nil
}

// minGain is the weighted SSE reduction a split must exceed: any real
// split clears it, so it stops only splits on float rounding noise.
const minGain = 1e-12

// growTree is every tree fit's entry: it checks the targets and the
// caller's weights (nil = uniform) and grows one tree. A classifier
// (classify) grows on its 0/1 labels: its pure nodes become leaves, as
// Gini impurity 0 did, and it records feature importances. leafOf, when
// non-nil, receives every row's dense leaf index.
func growTree(bn *Binned, y, w []float64, cfg Config, rng *randx.RNG, classify bool, leafOf []int32) (*Tree, error) {
	n, f := bn.N, bn.F
	if len(y) != n {
		return nil, fmt.Errorf("mltree: %d targets for %d instances", len(y), n)
	}
	if w == nil {
		w = uniformWeights(n)
	}
	totalW, err := checkWeights(w, n)
	if err != nil {
		return nil, err
	}
	if totalW == 0 {
		return nil, fmt.Errorf("mltree: zero total weight")
	}
	if cfg.MinSamplesLeaf < 1 {
		cfg.MinSamplesLeaf = 1
	}
	t := &Tree{NumFeatures: f}
	if classify {
		t.importances = make([]float64, f)
	}
	b := &grower{
		bn: bn, y: y, w: w, cfg: cfg, rng: rng, tree: t,
		minWeight: cfg.MinWeightFraction * totalW,
		classify:  classify,
		stride:    2,
		binOffset: binOffsets(bn),
		leafOf:    leafOf,
		sampler:   newFeatureSampler(f),
	}
	if cfg.MinSamplesLeaf > 1 {
		b.stride, b.minLeaf = 3, cfg.MinSamplesLeaf
	}
	for _, nb := range bn.Bins {
		b.maxNB = max(b.maxNB, nb)
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	defer func() {
		for _, m := range b.hists {
			// Unmapping a whole mapping Alloc made has no failure to act on.
			_ = m.Close()
		}
	}()
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

// featureSampler draws random feature subsets for the grower. It
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

// grower grows one tree with histogram split search. Each histogram bin
// holds stride slots: the bin's weight Σw, its weighted target sum Σw·y
// and, only when MinSamplesLeaf bounds leaves by rows, its row count.
type grower struct {
	bn        *Binned
	y, w      []float64
	cfg       Config
	rng       *randx.RNG
	tree      *Tree
	minWeight float64 // nodes lighter than this become leaves
	classify  bool    // y holds 0/1 labels: pure nodes become leaves
	stride    int     // histogram slots per bin: 2, or 3 with counts
	minLeaf   int     // rows per leaf the scans enforce (0 without counts)
	leaves    int32
	leafOf    []int32 // nil unless the caller wants row -> leaf

	// binOffset[j] is feature j's first bin in a flat histogram; bin b
	// of feature j starts at slot (binOffset[j]+b)*stride.
	binOffset []int
	// histPool recycles chain-mode histogram buffers: at most O(log n) are
	// live at a time because a fresh buffer is only ever needed for the
	// smaller child. Each buffer is an anonymous mapping outside the Go
	// heap (hists), so a fit's histograms neither raise the collector's
	// heap goal nor outlive it: growTree unmaps them all when it returns.
	histPool [][]float64
	hists    []*mmapfile.File
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

func (b *grower) featureCount() int { return featureCountFor(b.cfg, b.bn.F) }

func (b *grower) newHist() []float64 {
	if k := len(b.histPool); k > 0 {
		h := b.histPool[k-1]
		b.histPool = b.histPool[:k-1]
		clear(h)
		return h
	}
	size := b.binOffset[len(b.binOffset)-1] * b.stride
	m := mmapfile.Alloc(size * 8)
	b.hists = append(b.hists, m)
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(m.Data()))), size)
}

func (b *grower) freeHist(h []float64) { b.histPool = append(b.histPool, h) }

// accumulate adds the histogram of every feature over the node's
// instances — the O(m x F) half of the engine. The inner loop walks one
// row of codes sequentially, so it is cache-friendly where per-column
// gathers are not.
func (b *grower) accumulate(hist []float64, idx []int32) {
	f, stride := b.bn.F, b.stride
	for _, i := range idx {
		row := b.bn.Codes[int(i)*f : int(i)*f+f]
		wi := b.w[i]
		wy := wi * b.y[i]
		for j, code := range row {
			s := (b.binOffset[j] + int(code)) * stride
			hist[s] += wi
			hist[s+1] += wy
			if stride == 3 {
				hist[s+2]++
			}
		}
	}
}

// grow builds the subtree over idx. hist is the node's own full-F
// histogram in chain mode, nil in direct mode. Chain children derive their
// histograms by accumulating only the smaller side and subtracting it from
// hist in place for the larger; a node whose split is too skewed for the
// chain to pay drops its subtree to direct mode. Hist buffers are recycled
// once their subtree is built.
func (b *grower) grow(idx []int32, depth int, hist []float64) int32 {
	var sw, swy float64
	for _, i := range idx {
		sw += b.w[i]
		swy += b.w[i] * b.y[i]
	}
	leaf := func() int32 {
		mean := 0.0
		if sw > 0 {
			mean = swy / sw
		}
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
		b.tree.nodes = append(b.tree.nodes, node{feature: -1, value: mean, leafID: id})
		return int32(len(b.tree.nodes) - 1)
	}
	if len(idx) < 2*b.cfg.MinSamplesLeaf || sw <= 0 || sw < b.minWeight ||
		(b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) ||
		(b.classify && (swy == 0 || swy == sw)) {
		return leaf()
	}

	scan := splitScan{m: len(idx), minLeaf: b.minLeaf, sw: sw, swy: swy, base: swy * swy / sw, feat: -1}
	if hist != nil {
		b.scanChain(&scan, hist)
	} else {
		b.scanDirect(&scan, idx)
	}
	if scan.feat < 0 || scan.gain <= minGain {
		return leaf()
	}
	feat, binCut := scan.feat, scan.cut

	// Partition idx by bin code; code <= binCut is exactly x <= threshold
	// on the training data by the binner's threshold construction.
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
	// A side below MinSamplesLeaf (or empty, possible only via zero-weight
	// rows) makes the split degenerate.
	if lo < b.cfg.MinSamplesLeaf || len(idx)-lo < b.cfg.MinSamplesLeaf {
		return leaf()
	}
	if b.tree.importances != nil {
		// The gain is the Gini decrease times W/2, and W/2 times the
		// node's share W/W_total of the weight is the same constant for
		// every node, which normalisation cancels.
		b.tree.importances[feat] += scan.gain
	}

	self := int32(len(b.tree.nodes))
	b.tree.nodes = append(b.tree.nodes, node{feature: int32(feat), threshold: b.bn.Thresholds[feat][binCut], leafID: -1})

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

// splitScan is one node's split search: the node's rows m, weight sw,
// weighted target sum swy and base = swy²/sw, and the best boundary seen.
type splitScan struct {
	m, minLeaf int
	sw, swy    float64
	base       float64
	gain       float64
	feat, cut  int
	// floor is the lowest gain still in reach of the best: the best gain
	// less its tie margin (0 before the first best).
	floor float64
}

// tieMargin is the relative gain difference below which two candidate
// splits count as tied: far above the float rounding that separates
// equivalent forms of one criterion, far below any real gain difference.
const tieMargin = 1e-9

// gainAt scores a boundary whose left side holds weight wl, weighted
// target sum wyl and nl rows by weighted variance reduction
// wyl²/wl + wyr²/wr - swy²/sw, or returns -1 when a side is empty or
// below minLeaf. The scans pass consider only gains at or above the
// floor; kept apart, both functions inline, so a boundary out of reach of
// the best costs one comparison.
func (s *splitScan) gainAt(wl, wyl float64, nl int) float64 {
	if nl < s.minLeaf || s.m-nl < s.minLeaf {
		return -1
	}
	wr := s.sw - wl
	if wl <= 0 || wr <= 0 {
		return -1
	}
	wyr := s.swy - wyl
	return wyl*wyl/wl + wyr*wyr/wr - s.base
}

// consider offers the boundary after bin cut of feature feat, of gain at
// or above the floor. It replaces the best only when larger by more than
// tieMargin relative; within that margin the lower (feature, cut) wins,
// so the winner does not depend on the order the random feature subset is
// scanned in. Before the first best (feat -1) only a positive gain wins.
func (s *splitScan) consider(feat, cut int, gain float64) {
	if gain > s.gain+tieMargin*s.gain || feat < s.feat || feat == s.feat && cut < s.cut {
		s.gain, s.feat, s.cut = gain, feat, cut
		s.floor = gain - tieMargin*gain
	}
}

// scanChain scans a random feature subset's bin boundaries in the node's
// full-F histogram.
func (b *grower) scanChain(s *splitScan, hist []float64) {
	stride := b.stride
	for _, feat := range b.sampler.sample(b.rng, b.featureCount()) {
		base := b.binOffset[feat]
		var wl, wyl float64
		nl := 0
		for bin := 0; bin < b.bn.Bins[feat]-1; bin++ {
			h := (base + bin) * stride
			wl += hist[h]
			wyl += hist[h+1]
			if stride == 3 {
				nl += int(hist[h+2])
			}
			if g := s.gainAt(wl, wyl, nl); g >= s.floor {
				s.consider(feat, bin, g)
			}
		}
	}
}

// scanDirect is the direct-mode search: all candidate features'
// histograms are accumulated in one row-major pass over the node, then
// each candidate's occupied code range is scanned for the best boundary.
// Empty bins are skipped by stamp — their boundaries would only repeat the
// previous boundary's gain at a higher cut of the same feature, which
// neither beats the best by the tie margin nor wins its tie-break, so the
// sparse scan picks exactly the split a dense scan would.
func (b *grower) scanDirect(s *splitScan, idx []int32) {
	nFeat := b.featureCount()
	features := b.sampler.sample(b.rng, nFeat)
	f, stride, maxNB := b.bn.F, b.stride, b.maxNB

	if len(b.dirStamp) < nFeat*maxNB {
		b.dirSlot = make([]float64, nFeat*maxNB*stride)
		b.dirStamp = make([]uint32, nFeat*maxNB)
		b.dirLo = make([]int32, nFeat)
		b.dirHi = make([]int32, nFeat)
	}
	b.stamp++
	stamp := b.stamp
	for k := 0; k < nFeat; k++ {
		b.dirLo[k] = int32(maxNB)
		b.dirHi[k] = 0
	}
	for _, i := range idx {
		row := b.bn.Codes[int(i)*f : int(i)*f+f]
		wi := b.w[i]
		wy := wi * b.y[i]
		for k, feat := range features {
			code := int32(row[feat])
			si := k*maxNB + int(code)
			h := si * stride
			if b.dirStamp[si] != stamp {
				b.dirStamp[si] = stamp
				b.dirSlot[h], b.dirSlot[h+1] = 0, 0
				if stride == 3 {
					b.dirSlot[h+2] = 0
				}
				b.dirLo[k] = min(b.dirLo[k], code)
				b.dirHi[k] = max(b.dirHi[k], code)
			}
			b.dirSlot[h] += wi
			b.dirSlot[h+1] += wy
			if stride == 3 {
				b.dirSlot[h+2]++
			}
		}
	}

	for k, feat := range features {
		var wl, wyl float64
		nl := 0
		base := k * maxNB
		for bin := int(b.dirLo[k]); bin < int(b.dirHi[k]); bin++ {
			si := base + bin
			if b.dirStamp[si] != stamp {
				continue // empty bin
			}
			h := si * stride
			wl += b.dirSlot[h]
			wyl += b.dirSlot[h+1]
			if stride == 3 {
				nl += int(b.dirSlot[h+2])
			}
			if g := s.gainAt(wl, wyl, nl); g >= s.floor {
				s.consider(feat, bin, g)
			}
		}
	}
}

// FitForestBinned grows a random forest on a pre-binned matrix: the
// matrix is quantized once (by the caller) and shared by every tree, and
// each tree's RNG is keyed by its index so the forest is identical at any
// worker count.
func FitForestBinned(bn *Binned, y []int, w []float64, cfg ForestConfig) (*Forest, error) {
	if cfg.NumTrees < 1 {
		return nil, fmt.Errorf("mltree: forest needs at least 1 tree")
	}
	n := bn.N
	targets, err := binaryTargets(y, n)
	if err != nil {
		return nil, err
	}
	// The caller's weights are checked before bootstrapping: a draw that
	// misses a row scales its weight by 0, which would turn -5 into a
	// -0 that passes the per-tree check.
	if w != nil {
		if _, err := checkWeights(w, n); err != nil {
			return nil, err
		}
	}
	// Uniform weights are read-only: one shared allocation serves every
	// tree instead of one per tree inside the fit.
	if w == nil && !cfg.Bootstrap {
		w = uniformWeights(n)
	}
	trees := make([]*Tree, cfg.NumTrees)
	err = parallel.For(cfg.Workers, cfg.NumTrees, func(ti int) error {
		rng := randx.DeriveIndexed(cfg.Seed, 0x7ee5, "tree", ti)
		wi := w
		if cfg.Bootstrap {
			wi = bootstrapWeights(rng, n, w)
		}
		var err error
		trees[ti], err = growTree(bn, targets, wi, cfg.Tree, rng, true, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Forest{Trees: trees, NumFeatures: bn.F}, nil
}

package mltree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// This file is the batched flat inference engine. Flatten compiles a
// fitted Tree, Forest or GBT into one contiguous block of packed node
// words that compare one-byte codes instead of floats, and ScoreBatch
// scores a row-major block through it without allocating.
//
// Collect a feature's distinct split thresholds into an ascending cut
// array and quantize a raw value to its lower-bound index
// code(v) = #{i : cuts[i] < v}; then for every non-NaN v and every cut
// index k,
//
//	v <= cuts[k]  <=>  code(v) <= k
//
// (code(v) <= k iff cuts[k] >= v, by the ascending order). The argument
// uses nothing about the cuts but their order. A NaN quantizes to m, the
// cut count (its total-order key sits above every cut key), which exceeds
// every stored cut index, so NaN routes right at every node: the walked
// path's "NaN <= t is false". Descent on codes therefore takes the walked
// learner's child at every node and reaches its leaf for every row.
//
// A code is one byte, so a feature holds at most 255 cuts (codes 0..255,
// NaN included) — as many as the training engine's bin boundaries ever
// produce. Each feature the model splits on is one code column; src maps
// code column to input column. Features the model never splits on get no
// column and are never read, and a feature with more cuts is refused.
//
// Nodes use a sibling-pair layout: an internal node's two children
// always occupy adjacent slots, so the descent step is an add of the
// compare bit instead of a two-way select —
//
//	internal: column<<48 | cutCode<<40 | firstChild   (bit 63 clear)
//	leaf:     1<<63 | 0xFF<<40 | leafIdx<<20 | ownSlot
//
// with firstChild/ownSlot in bits 0..19 and code columns capped below
// 2^15 so bit 63 distinguishes the two. A step extracts t = word>>40,
// loads the row's code for the node's column at tile offset t&0x7FFF00
// (exactly column*256 — the code tile's row stride is 256), and advances
// to firstChild + ((cut-code)>>31): borrow set means cut < code, the
// go-right condition. A leaf word is a fixed point of that step: its
// cut field 0xFF is >= every code, so it self-loops on its own slot.
// The counted phase can therefore run any number of levels past a
// shallow leaf, and the clamped phase tests "all lanes done" as the sign
// of the AND of the eight node words in flight. Past the layout's
// capacity (2^20 node slots or leaves, 2^15 code columns) Flatten
// returns an error; there is no other kernel to fall back to.
//
// The batch loop quantizes once per 256-row block, column-major, so its
// cost is amortized over every tree level the model descends, then
// descends tree-major: one tree's nodes (8 bytes each, a few KB for
// typical trees) stay L1-resident across all of the block's 8-lane
// groups. Rows past the block's last full group descend as one more
// group into an 8-slot scratch; its spare lanes read stale tile codes
// and are discarded. Each row adds tree 0, then tree 1, ... to its
// running sum, and the per-row post-step (none for a lone tree, the
// forest's 1/T scaling, the GBT's logistic function) is the walked
// path's own, so scores are bit-identical to the walked learner and
// flattened == walked extends every cached == uncached / workers 1 == N
// determinism invariant to the serving path.

// Post is the step a Flat applies to each row's tree sum.
type Post uint8

const (
	// PostNone serves a lone tree: the sum is its leaf's class-1
	// probability.
	PostNone Post = iota
	// PostMean serves a forest: the sum of class-1 probabilities times
	// 1/T.
	PostMean
	// PostLogistic serves a GBT: the prior plus every shrunk stage value,
	// through the logistic function.
	PostLogistic
)

// Flat is a fitted Tree, Forest or GBT compiled into the flat layout.
type Flat struct {
	// NumFeatures is the width of the rows ScoreBatch reads.
	NumFeatures int
	post        Post
	base        float64 // every row's sum starts here: 0, or a GBT's prior
	nodes       []uint64
	roots       []int32
	// phase1[t] is tree t's counted clamp-free descent depth, at most its
	// depth (exactly it for GBT stages, so the clamped loop exits on its
	// first test); self-looping leaves make any count safe.
	phase1   []int32
	leafVals []float64 // pooled per-leaf payload: class-1 prob or shrunk stage value
	src      []int32   // code column -> input column, strictly ascending
	cuts     []float64 // concatenated ascending per-column cut values
	cutOff   []int32   // len(src)+1; column c's cuts are cuts[cutOff[c]:cutOff[c+1]]

	// Everything below is derived from the fields above by finishDerived
	// (called by the compiler and by the decoder), never serialized.
	pkeys []uint64      // per-column ascending cut keys, each run + one ^0 sentinel
	pkOff []int32       // len(src); column c's padded keys start at pkOff[c]
	fq    []binnedQuant // per-column radix acceleration (zero value = search)
	meta  []uint64      // per-exponent sub-table descriptors (subOff<<32|mask<<8|shift)
	tab   []uint8       // concatenated sub-bucket -> lower-bound-code tables
}

// Layout capacity: 20-bit child slots and leaf indexes, 15-bit code
// columns (bit 63 of a node word is the leaf flag), 8-bit cut codes.
const (
	flatMaxNodes = 1 << 20
	flatMaxCuts  = 255
	flatMaxCols  = 1 << 15
)

// flatRowBlock is the batch loop's row-block size: a block's code tile
// (flatRowBlock bytes per code column) stays L1/L2-resident while every
// tree descends it.
const flatRowBlock = 256

// forestPadDepth caps a classification tree's counted clamp-free descent
// phase: forest trees are deep and unbalanced, so the general clamped
// loop takes over for the deep tail past this many levels (measured best
// between 11 and 14 on the benchmark forest, whose mean leaf depth is
// about 12). Boosting stages are shallow and near complete, so their
// counted phase is their full depth.
const forestPadDepth = 12

// The descent step addresses the code tile as (word>>40)&0x7FFF00 =
// column*256, which is only the tile offset if the row-block stride
// is exactly 256.
var _ [flatRowBlock - 256][0]byte

// floatKey maps float64 bit patterns to uint64 keys whose unsigned order
// is the IEEE-754 value order: non-negative floats keep their bits with
// the sign bit set (monotone already), negative floats invert all bits
// (reversing their descending bit order and placing them below the
// non-negatives). The map is strictly monotone on everything except the
// two zeros, which land adjacent (key(-0) < key(+0)); thresholdKey
// canonicalizes -0 thresholds to +0 so "v <= t" and "key(v) <= key(t)"
// agree for every non-NaN v. rowKey handles NaN row values.
func floatKey(b uint64) uint64 {
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// thresholdKey compiles a split threshold to its comparison key.
func thresholdKey(t float64) uint64 {
	if t == 0 {
		t = 0 // -0 and +0 split identically; canonicalize so keys do too
	}
	return floatKey(math.Float64bits(t))
}

// rowKey maps a row value's bit pattern to its comparison key: floatKey
// with negative NaNs lifted to the top key, so every NaN compares above
// every cut (the compiler turns the guard into a conditional move, so
// no input data steers a branch).
func rowKey(vb uint64) uint64 {
	vk := floatKey(vb)
	if vb > 0xfff0000000000000 { // negative NaN
		vk = ^uint64(0)
	}
	return vk
}

// packNode packs an internal node word.
func packNode(col int32, cut uint8, firstChild int32) uint64 {
	return uint64(uint16(col))<<48 | uint64(cut)<<40 | uint64(uint32(firstChild)&0xFFFFF)
}

// leafWord packs a self-looping leaf word occupying slot.
func leafWord(leafIdx, slot int32) uint64 {
	return 1<<63 | uint64(0xFF)<<40 | uint64(uint32(leafIdx)&0xFFFFF)<<20 | uint64(uint32(slot)&0xFFFFF)
}

// splitNode is one node of a tree on its way into the compiler, whichever
// learner grew it.
type splitNode struct {
	feature     int32 // -1 for leaves
	threshold   float64
	left, right int32
	leaf        float64 // a leaf's payload
}

// compileFlat compiles trees (each rooted at its node 0) over f-wide rows.
// Every tree's counted descent phase is its depth, capped at padCap.
func compileFlat(f int, post Post, base float64, trees [][]splitNode, padCap int32) (*Flat, error) {
	// Each feature's distinct thresholds, ascending. A NaN threshold
	// sends every row right (v <= NaN is false), so the compiler replaces
	// its node by the right subtree and the cut tables never hold one.
	perFeat := make([][]float64, f)
	for _, nodes := range trees {
		if len(nodes) == 0 {
			return nil, fmt.Errorf("mltree: Flatten on an empty tree")
		}
		for _, nd := range nodes {
			if nd.feature >= 0 && !math.IsNaN(nd.threshold) {
				perFeat[nd.feature] = append(perFeat[nd.feature], nd.threshold)
			}
		}
	}
	fl := &Flat{NumFeatures: f, post: post, base: base, cutOff: []int32{0},
		roots: make([]int32, len(trees)), phase1: make([]int32, len(trees))}
	col := make([]int32, f) // feature j's code column
	for j, ts := range perFeat {
		if len(ts) == 0 {
			continue
		}
		slices.Sort(ts)
		ts = slices.Compact(ts)
		if len(ts) > flatMaxCuts {
			return nil, fmt.Errorf("mltree: feature %d splits on %d thresholds; the flat layout holds %d", j, len(ts), flatMaxCuts)
		}
		perFeat[j] = ts
		col[j] = int32(len(fl.src))
		fl.src = append(fl.src, int32(j))
		fl.cuts = append(fl.cuts, ts...)
		fl.cutOff = append(fl.cutOff, int32(len(fl.cuts)))
	}
	if len(fl.src) >= flatMaxCols {
		return nil, fmt.Errorf("mltree: %d code columns exceed the flat layout's %d", len(fl.src), flatMaxCols)
	}
	fl.finishDerived()
	for ti, nodes := range trees {
		// emit compiles the subtree under node i into slot and returns
		// its compiled depth.
		var emit func(i, slot int32) int32
		emit = func(i, slot int32) int32 {
			nd := &nodes[i]
			if nd.feature < 0 {
				fl.nodes[slot] = leafWord(int32(len(fl.leafVals)), slot)
				fl.leafVals = append(fl.leafVals, nd.leaf)
				return 0
			}
			if math.IsNaN(nd.threshold) {
				return emit(nd.right, slot)
			}
			k, _ := slices.BinarySearch(perFeat[nd.feature], nd.threshold)
			fc := int32(len(fl.nodes))
			fl.nodes = append(fl.nodes, 0, 0)
			fl.nodes[slot] = packNode(col[nd.feature], uint8(k), fc)
			return 1 + max(emit(nd.left, fc), emit(nd.right, fc+1))
		}
		fl.roots[ti] = int32(len(fl.nodes))
		fl.nodes = append(fl.nodes, 0)
		fl.phase1[ti] = min(padCap, emit(0, fl.roots[ti]))
	}
	if len(fl.nodes) > flatMaxNodes || len(fl.leafVals) > flatMaxNodes {
		return nil, fmt.Errorf("mltree: %d node slots, %d leaves exceed the flat layout's %d",
			len(fl.nodes), len(fl.leafVals), flatMaxNodes)
	}
	return fl, nil
}

// splitNodes lists the tree's nodes for the compiler, with each split
// feature mapped through index (nil keeps them) and each leaf carrying
// its class-1 probability.
func (t *Tree) splitNodes(index []int32) []splitNode {
	out := make([]splitNode, len(t.nodes))
	for i, nd := range t.nodes {
		out[i] = splitNode{feature: remap(index, nd.feature), threshold: nd.threshold, left: nd.left, right: nd.right}
		if nd.feature < 0 {
			out[i].leaf = nd.probs[1]
		}
	}
	return out
}

// splitNodes lists the stage's nodes for the compiler, with each split
// feature mapped through index (nil keeps them) and each leaf carrying
// shrinkage*value: the walked path's per-stage addend, the product of the
// same two floats.
func (t *RegressionTree) splitNodes(index []int32, shrinkage float64) []splitNode {
	out := make([]splitNode, len(t.nodes))
	for i, nd := range t.nodes {
		out[i] = splitNode{feature: remap(index, nd.feature), threshold: nd.threshold, left: nd.left, right: nd.right}
		if nd.feature < 0 {
			out[i].leaf = shrinkage * nd.value
		}
	}
	return out
}

// remap maps a split feature through index; leaves (-1) and a nil index
// keep it.
func remap(index []int32, feature int32) int32 {
	if feature < 0 || index == nil {
		return feature
	}
	return index[feature]
}

// Flatten compiles the tree into the flat layout.
func (t *Tree) Flatten() (*Flat, error) { return t.flatten(nil, t.NumFeatures) }

func (t *Tree) flatten(index []int32, f int) (*Flat, error) {
	return compileFlat(f, PostNone, 0, [][]splitNode{t.splitNodes(index)}, forestPadDepth)
}

// Flatten compiles the forest into the flat layout.
func (fo *Forest) Flatten() (*Flat, error) { return fo.flatten(nil, fo.NumFeatures) }

func (fo *Forest) flatten(index []int32, f int) (*Flat, error) {
	trees := make([][]splitNode, len(fo.Trees))
	for i, t := range fo.Trees {
		trees[i] = t.splitNodes(index)
	}
	return compileFlat(f, PostMean, 0, trees, forestPadDepth)
}

// Flatten compiles the boosted ensemble into the flat layout.
func (g *GBT) Flatten() (*Flat, error) { return g.flatten(nil, g.NumFeatures) }

func (g *GBT) flatten(index []int32, f int) (*Flat, error) {
	stages := make([][]splitNode, len(g.trees))
	for i, t := range g.trees {
		stages[i] = t.splitNodes(index, g.shrinkage)
	}
	return compileFlat(f, PostLogistic, g.prior, stages, math.MaxInt32)
}

// codeTiles recycles code tiles across batch calls so the steady state
// allocates nothing. Class k holds tiles for up to 2^k code columns (k <=
// 15, since code columns stay below flatMaxCols): one pool shared by
// models of different sizes would keep trading undersized tiles for new
// ones. Each class keeps its last idle tile outside the sync.Pool, because
// a pooled tile sits in the putting P's private slot, where a Get on
// another P cannot see it: a goroutine that migrates between Ps would
// otherwise reallocate the tile now and then.
var codeTiles [16]struct {
	last atomic.Pointer[[]uint8]
	pool sync.Pool
}

// getCodeTile returns a tile of class k: (1<<k) x flatRowBlock bytes.
func getCodeTile(k int) *[]uint8 {
	c := &codeTiles[k]
	if p := c.last.Swap(nil); p != nil {
		return p
	}
	if p, ok := c.pool.Get().(*[]uint8); ok {
		return p
	}
	cb := make([]uint8, (1<<k)*flatRowBlock)
	return &cb
}

// putCodeTile returns a tile got from getCodeTile(k).
func putCodeTile(k int, p *[]uint8) {
	c := &codeTiles[k]
	if !c.last.CompareAndSwap(nil, p) {
		c.pool.Put(p)
	}
}

// ScoreBatch writes each row's score into out[i] for the n x NumFeatures
// row-major block x: a lone tree's or a forest's class-1 probability, or
// a GBT's P(class 1). Bit-identical to the walked learner's
// PredictProbaInto(row)[1]; allocates nothing.
func (fl *Flat) ScoreBatch(x []float64, n int, out []float64) {
	f := fl.NumFeatures
	if n < 0 || len(x) != n*f {
		panic(fmt.Sprintf("mltree: batch of %d values is not %d rows x %d features", len(x), n, f))
	}
	if len(out) < n {
		panic(fmt.Sprintf("mltree: batch output of %d values for %d rows", len(out), n))
	}
	k := bits.Len(uint(len(fl.src)))
	ct := getCodeTile(k)
	defer putCodeTile(k, ct)
	cb := *ct
	start := time.Now()
	var quant time.Duration
	inv := 1 / float64(len(fl.roots))
	for i0 := 0; i0 < n; i0 += flatRowBlock {
		rows := min(flatRowBlock, n-i0)
		q0 := time.Now()
		fl.quantize(x[i0*f:], rows, cb)
		quant += time.Since(q0)
		blk := out[i0 : i0+rows]
		g8 := rows &^ 7
		var tail [8]float64
		for i := range blk {
			blk[i] = fl.base
		}
		copy(tail[:], blk[g8:])
		for ti := range fl.roots {
			fl.addTreeBlock(cb, 0, g8, ti, blk)
			if g8 < rows {
				fl.addTreeBlock(cb, g8, 8, ti, tail[:])
			}
		}
		copy(blk[g8:], tail[:])
		switch fl.post {
		case PostMean:
			for i := range blk {
				blk[i] *= inv
			}
		case PostLogistic:
			for i := range blk {
				blk[i] = sigmoid(blk[i])
			}
		}
	}
	quantizeSeconds.ObserveDuration(quant)
	descendSeconds.ObserveDuration(time.Since(start) - quant)
}

// NumTrees returns the compiled tree (or boosting stage) count.
func (fl *Flat) NumTrees() int { return len(fl.roots) }

// Post returns the per-row step the engine applies to its tree sums.
func (fl *Flat) Post() Post { return fl.post }

// FlatBytes reports the engine's memory footprint.
func (fl *Flat) FlatBytes() int64 {
	return int64(len(fl.nodes))*8 + int64(len(fl.leafVals))*8 +
		int64(len(fl.cuts))*8 + int64(len(fl.cutOff))*4 + int64(len(fl.src))*4 +
		int64(len(fl.pkeys))*8 + int64(len(fl.pkOff))*4 +
		int64(len(fl.fq))*24 + int64(len(fl.meta))*8 + int64(len(fl.tab)) +
		int64(len(fl.roots))*8 + 112
}

// finishDerived populates the derived search structures (pkeys, pkOff,
// fq, meta, tab) from cuts/cutOff.
func (fl *Flat) finishDerived() {
	nc := len(fl.src)
	fl.pkeys = fl.pkeys[:0]
	fl.meta = fl.meta[:0]
	fl.tab = fl.tab[:0]
	fl.pkOff = make([]int32, nc)
	fl.fq = make([]binnedQuant, nc)
	for c := 0; c < nc; c++ {
		fl.pkOff[c] = int32(len(fl.pkeys))
		for _, v := range fl.cuts[fl.cutOff[c]:fl.cutOff[c+1]] {
			fl.pkeys = append(fl.pkeys, thresholdKey(v))
		}
		fl.pkeys = append(fl.pkeys, ^uint64(0))
		if m := int(fl.cutOff[c+1] - fl.cutOff[c]); m > binnedRadixMinCuts {
			keys := fl.pkeys[fl.pkOff[c] : int(fl.pkOff[c])+m]
			fl.fq[c] = buildRadix(keys, &fl.meta, &fl.tab)
		}
	}
}

// binnedQuant is one code column's two-level radix quantization table.
// Total-order keys stratify by the float's sign and exponent (the top
// 12 bits), so a single linear bucket scale cannot separate quantile
// cuts — they cluster around the data's dense exponents. Level one
// therefore indexes meta by exactly those 12 bits, kc>>52 - e1base,
// after clamping the row key into [kbase, klast] (clamping only moves
// keys that sit outside every cut, and the residual compare below uses
// the unclamped key, so below-range rows still code 0 and above-range
// and NaN rows still code m). Each meta word packs a per-exponent
// sub-table: subOff<<32 | mask<<8 | shift, where bucket (kc>>shift)&mask
// slices the mantissa bits just below the exponent — keys within one
// exponent are linear in those bits, so a small power-of-two sub-table
// reaches at most one cut per bucket. tab[subOff+bucket] is the
// lower-bound code at the bucket's base; the residual is one masked
// key compare. radix is false for columns with few cuts (a 3-4 level
// search beats the table's fixed overhead) or degenerate cut sets (an
// exponent whose cuts are denser than the 10-bit sub-table cap), which
// keep the binary search.
// The level-one axis spans every raw exponent slot between the first
// and last cut — at most 4096 of them (12 bits), and in practice a few
// dozen because only slots between the extreme cuts exist. meta is
// derived, never serialized, and only the slots near real data are
// ever loaded, so the axis is left uncompressed to keep the per-row
// lookup at its minimum op count.
type binnedQuant struct {
	kbase   uint64
	klast   uint64
	metaOff int32
	e1base  uint32
	radix   bool
}

// binnedRadixMinCuts is the cut count above which quantize prefers the
// radix table to the binary search. Below it the search needs few
// levels and the feature's whole key run sits in one or two L1 lines,
// beating the table's three dependent loads over a sparse meta array.
const binnedRadixMinCuts = 16

// binnedRadixMaxExp caps a feature's level-one table at the full
// 4096-slot axis of the key's top 12 bits (sign+exponent), which the
// raw span klast>>52 - kbase>>52 can never exceed; the check documents
// the invariant more than it gates. binnedRadixMaxSubBits caps a
// sub-table at 2^10 buckets (a slot needs more only for near-duplicate
// thresholds differing far down the mantissa); cut sets past it keep
// the binary search.
const (
	binnedRadixMaxExp     = 4096
	binnedRadixMaxSubBits = 10
)

// buildRadix builds one feature's two-level table over its ascending
// cut keys. The level-one axis is the raw exponent slot keys[i]>>52
// over the span [kbase>>52, klast>>52] (see binnedQuant for why it is
// left uncompressed). For every slot it picks the smallest
// power-of-two sub-table over the mantissa bits below bit 52 that
// separates the slot's cuts into distinct buckets — within
// a slot the keys share their top 12 bits, so those next bits order
// them and a consecutive-pair scan proves distinctness. Sub-table
// entry b holds the absolute lower-bound code at the bucket's base
// (the count of cuts in earlier slots plus earlier buckets), with one
// trailing entry per slot so entry b+1 always bounds the bucket's cut
// count. Returns the zero binnedQuant — binary-search fallback — when
// a slot's required sub-table exceeds its cap, restoring meta and tab.
func buildRadix(keys []uint64, meta *[]uint64, tab *[]uint8) binnedQuant {
	m := len(keys)
	kbase, klast := keys[0], keys[m-1]
	e1base := kbase >> 52
	e1len := int(klast>>52-e1base) + 1
	if e1len > binnedRadixMaxExp {
		return binnedQuant{}
	}
	metaOff, tabOff := len(*meta), len(*tab)
	ci := 0
	for e := 0; e < e1len; e++ {
		cj := ci
		for cj < m && keys[cj]>>52 == e1base+uint64(e) {
			cj++
		}
		sb := 0
		for ; sb <= binnedRadixMaxSubBits; sb++ {
			shift := uint(52 - sb)
			mask := uint64(1)<<sb - 1
			distinct := true
			for i := ci + 1; i < cj; i++ {
				if (keys[i]>>shift)&mask == (keys[i-1]>>shift)&mask {
					distinct = false
					break
				}
			}
			if distinct {
				break
			}
		}
		if sb > binnedRadixMaxSubBits {
			*meta = (*meta)[:metaOff]
			*tab = (*tab)[:tabOff]
			return binnedQuant{}
		}
		shift := uint64(52 - sb)
		mask := uint64(1)<<sb - 1
		subOff := len(*tab)
		k := ci
		for b := uint64(0); b <= mask; b++ {
			for k < cj && (keys[k]>>shift)&mask < b {
				k++
			}
			*tab = append(*tab, uint8(k))
		}
		*tab = append(*tab, uint8(cj))
		*meta = append(*meta, uint64(subOff)<<32|mask<<8|shift)
		ci = cj
	}
	return binnedQuant{kbase: kbase, klast: klast, metaOff: int32(metaOff),
		e1base: uint32(e1base), radix: true}
}

// quantize fills the code tile for a row block: cb[c*flatRowBlock+r]
// is row r's code in code column c, for the first rows rows of the
// row-major block x. Iteration is column-major so one column's search
// structures (at most 2KB of keys plus a small two-level radix table)
// stay L1-resident for the whole block and the tile writes are
// sequential. The lower bound runs in total-order key space (v <= cut
// iff rowKey(v) <= cutKey, see floatKey),
// which makes every compare pure integer arithmetic with no
// data-dependent branch for the predictor to miss on, and NaN needs no
// special case — its key sits above every finite cut key, so it
// lower-bounds to m, above every stored cut code, routing right at
// each node exactly like the walked path. Radix-mapped columns clamp
// the key into the cut span (the residual compares the unclamped key,
// so out-of-span rows stay exact), index the exponent's meta word, and
// resolve in two table loads plus one masked compare; the rest take a
// borrow-mask binary search. Four rows run concurrently so the load
// chains pipeline. Only the input columns the model splits on are
// read, each once.
func (fl *Flat) quantize(x []float64, rows int, cb []uint8) {
	stride := uintptr(fl.NumFeatures) * 8
	xp := unsafe.Pointer(unsafe.SliceData(x))
	cbp := unsafe.Pointer(unsafe.SliceData(cb))
	for c, col := range fl.src {
		kp := unsafe.Pointer(&fl.pkeys[fl.pkOff[c]])
		dp := unsafe.Add(cbp, c*flatRowBlock)
		p := unsafe.Add(xp, uintptr(col)*8)
		r := 0
		m := int(fl.cutOff[c+1] - fl.cutOff[c])
		if binnedHaveAVX512 && m <= binnedSIMDMaxCuts {
			// AVX-512 linear compare-count over all the cuts at once;
			// leftover rows past the last multiple of 8 fall through to
			// the scalar binary search below.
			if g8 := rows &^ 7; g8 > 0 {
				quantCmpAVX512(p, stride, dp, g8, kp, m)
				r = g8
				p = unsafe.Add(p, uintptr(g8)*stride)
			}
		} else if q := &fl.fq[c]; q.radix {
			// One row per iteration, every op branchless: with no
			// data-dependent branch in the body, out-of-order execution
			// overlaps the per-row load chains across iterations on its
			// own, and the small live set keeps the clamp in CMOVs
			// instead of the spill-and-branch code a manually
			// interleaved body provokes.
			kb, kl := q.kbase, q.klast
			e1b := uint64(q.e1base)
			mp := unsafe.Pointer(&fl.meta[q.metaOff])
			tp := unsafe.Pointer(unsafe.SliceData(fl.tab))
			for ; r < rows; r++ {
				k := rowKey(math.Float64bits(*(*float64)(p)))
				p = unsafe.Add(p, stride)
				kc := min(max(k, kb), kl)
				mw := *(*uint64)(unsafe.Add(mp, uintptr(kc>>52-e1b)*8))
				i := uintptr(mw>>32) + uintptr(kc>>(mw&63)&(mw>>8&0xFFFFFF))
				lo := uint32(*(*uint8)(unsafe.Add(tp, i)))
				nn := uint32(*(*uint8)(unsafe.Add(tp, i+1))) - lo
				_, c := bits.Sub64(*(*uint64)(unsafe.Add(kp, uintptr(lo)*8)), k, 0)
				*(*uint8)(unsafe.Add(dp, r)) = uint8(lo + uint32(c)&nn)
			}
			continue
		}
		for ; r+4 <= rows; r += 4 {
			k0 := rowKey(math.Float64bits(*(*float64)(p)))
			k1 := rowKey(math.Float64bits(*(*float64)(unsafe.Add(p, stride))))
			k2 := rowKey(math.Float64bits(*(*float64)(unsafe.Add(p, 2*stride))))
			k3 := rowKey(math.Float64bits(*(*float64)(unsafe.Add(p, 3*stride))))
			p = unsafe.Add(p, 4*stride)
			var b0, b1, b2, b3 int
			for n := m; n > 1; n -= n >> 1 {
				h := n >> 1
				q := unsafe.Add(kp, uintptr(h-1)*8)
				_, w0 := bits.Sub64(*(*uint64)(unsafe.Add(q, uintptr(b0)*8)), k0, 0)
				_, w1 := bits.Sub64(*(*uint64)(unsafe.Add(q, uintptr(b1)*8)), k1, 0)
				_, w2 := bits.Sub64(*(*uint64)(unsafe.Add(q, uintptr(b2)*8)), k2, 0)
				_, w3 := bits.Sub64(*(*uint64)(unsafe.Add(q, uintptr(b3)*8)), k3, 0)
				b0 += h & -int(w0)
				b1 += h & -int(w1)
				b2 += h & -int(w2)
				b3 += h & -int(w3)
			}
			_, w0 := bits.Sub64(*(*uint64)(unsafe.Add(kp, uintptr(b0)*8)), k0, 0)
			_, w1 := bits.Sub64(*(*uint64)(unsafe.Add(kp, uintptr(b1)*8)), k1, 0)
			_, w2 := bits.Sub64(*(*uint64)(unsafe.Add(kp, uintptr(b2)*8)), k2, 0)
			_, w3 := bits.Sub64(*(*uint64)(unsafe.Add(kp, uintptr(b3)*8)), k3, 0)
			*(*uint8)(unsafe.Add(dp, r)) = uint8(b0 + int(w0))
			*(*uint8)(unsafe.Add(dp, r+1)) = uint8(b1 + int(w1))
			*(*uint8)(unsafe.Add(dp, r+2)) = uint8(b2 + int(w2))
			*(*uint8)(unsafe.Add(dp, r+3)) = uint8(b3 + int(w3))
		}
		for ; r < rows; r++ {
			k := rowKey(math.Float64bits(*(*float64)(p)))
			p = unsafe.Add(p, stride)
			var b int
			for n := m; n > 1; n -= n >> 1 {
				h := n >> 1
				_, w := bits.Sub64(*(*uint64)(unsafe.Add(kp, uintptr(b+h-1)*8)), k, 0)
				b += h & -int(w)
			}
			_, w := bits.Sub64(*(*uint64)(unsafe.Add(kp, uintptr(b)*8)), k, 0)
			*(*uint8)(unsafe.Add(dp, r)) = uint8(b + int(w))
		}
	}
}

// addTreeBlock descends tree ti for the 8-lane groups of code-tile rows
// [r0, r0+rows8) (rows8 a multiple of 8), adding each row's leaf value
// into out[r-r0]. Phase one is the counted
// clamp-free loop over the tree's compiled depth bound; phase two is
// the general loop, running while the AND of the eight node words in
// flight is non-negative (bit 63 set on all words means every lane
// rests on a self-looping leaf — for GBT stages the counted depth is
// exact, so this fails immediately). A lane step is one 8-byte node
// word load, one 1-byte code load at tile offset (word>>40)&0x7FFF00
// (the node's code column times the 256-row tile stride), and an add of
// the cut<code borrow bit to the adjacent-children base slot. Loads go
// through unchecked pointer arithmetic: child slots index the block they
// were compiled into, code columns index the tile, and rows stay below
// the tile's 256, all by construction (and by decode validation for a
// loaded model). The unsafe.Pointer locals keep the backing arrays
// reachable for the duration of the call. Lane bodies are written out
// rather than factored into a helper: a helper lands past the inlining
// budget, and a call per lane-level costs more than the step itself.
func (fl *Flat) addTreeBlock(cb []uint8, r0, rows8, ti int, out []float64) {
	np := unsafe.Pointer(unsafe.SliceData(fl.nodes))
	cbp := unsafe.Pointer(unsafe.SliceData(cb))
	vals := fl.leafVals
	rw := *(*uint64)(unsafe.Add(np, uintptr(fl.roots[ti])*8))
	p1 := fl.phase1[ti]
	for g := 0; g < rows8; g += 8 {
		cp := unsafe.Add(cbp, r0+g)
		w0, w1, w2, w3, w4, w5, w6, w7 := rw, rw, rw, rw, rw, rw, rw, rw
		for d := p1; d > 0; d-- {
			{
				t := uint32(w0 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+0)))
				w0 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w0)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w1 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+1)))
				w1 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w1)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w2 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+2)))
				w2 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w2)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w3 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+3)))
				w3 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w3)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w4 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+4)))
				w4 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w4)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w5 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+5)))
				w5 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w5)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w6 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+6)))
				w6 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w6)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w7 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+7)))
				w7 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w7)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
		}
		for int64(w0&w1&w2&w3&w4&w5&w6&w7) >= 0 {
			{
				t := uint32(w0 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+0)))
				w0 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w0)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w1 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+1)))
				w1 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w1)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w2 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+2)))
				w2 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w2)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w3 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+3)))
				w3 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w3)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w4 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+4)))
				w4 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w4)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w5 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+5)))
				w5 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w5)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w6 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+6)))
				w6 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w6)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
			{
				t := uint32(w7 >> 40)
				code := uint32(*(*uint8)(unsafe.Add(cp, uintptr(t&0x7FFF00)+7)))
				w7 = *(*uint64)(unsafe.Add(np, uintptr((uint32(w7)&0xFFFFF)+((t&0xFF)-code)>>31)*8))
			}
		}
		o := out[g : g+8]
		o[0] += vals[uint32(w0>>20)&0xFFFFF]
		o[1] += vals[uint32(w1>>20)&0xFFFFF]
		o[2] += vals[uint32(w2>>20)&0xFFFFF]
		o[3] += vals[uint32(w3>>20)&0xFFFFF]
		o[4] += vals[uint32(w4>>20)&0xFFFFF]
		o[5] += vals[uint32(w5>>20)&0xFFFFF]
		o[6] += vals[uint32(w6>>20)&0xFFFFF]
		o[7] += vals[uint32(w7>>20)&0xFFFFF]
	}
}

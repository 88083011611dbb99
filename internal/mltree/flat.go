package mltree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"
)

// This file is the batched flat inference engine. Flatten compiles a
// fitted Tree, Forest or GBT into one contiguous block of packed node
// words that compare one-byte codes instead of floats. Scoring is two
// steps, the engine's one path: Codes quantizes rows into code tiles a
// caller keeps, and ScoreCodes descends them.
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
// produce. Each feature the model splits on is one code column, and src,
// exposed as Cols, lists those features in ascending order: the rows
// Codes quantizes hold just these values, so a feature the model never
// splits on is never built, and a feature with more cuts is refused.
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
// Rows quantize once per 256-row block, column-major, into that block's
// code tile, so the cost is amortized over every tree level the model
// descends. Every column quantizes by one portable search (quantize): a
// branchless lower bound over its cut keys, with no assembly and no
// CPU-feature dispatch. The one descent loop, descendBlock, then runs
// tree-major: one tree's nodes (8 bytes each, a few KB for typical trees)
// stay L1-resident across all of the block's 8-lane groups. Rows past the
// block's last full group descend as one more group into an 8-slot
// scratch; its spare lanes read whatever codes the tile holds there and
// are discarded. Each row adds tree 0, then tree 1, ... to its
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
	// NumFeatures is the learner's input width: Cols lists features
	// below it. The engine reads Cols-wide rows, so this serves only to
	// validate them against the feature vector they come from.
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
	src      []int32   // code column -> input feature, strictly ascending (Cols)
	cuts     []float64 // concatenated ascending per-column cut values
	cutOff   []int32   // len(src)+1; column c's cuts are cuts[cutOff[c]:cutOff[c+1]]

	// Derived from cuts by finishDerived (called by the compiler and by
	// the decoder), never serialized.
	keys []uint64 // thresholdKey of each cut, at the cut's offset in cuts
	id   uint64   // process-unique engine name (ID)
}

// flatIDs numbers engines as they are compiled or decoded.
var flatIDs atomic.Uint64

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

// codeSubRows is how many rows Codes asks its fill function for at a
// time: few enough that the float scratch stays cache-resident next to
// the tile, and a divisor of flatRowBlock, so no sub-block straddles two
// tiles.
const codeSubRows = 32

var _ = [1]int{}[flatRowBlock%codeSubRows]

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

// splitNodes lists the tree's nodes for the compiler, each leaf carrying
// scale*value: a classifier's class-1 probability at scale 1, or a
// boosting stage's shrinkage*value, the walked path's per-stage addend
// (the product of the same two floats).
func (t *Tree) splitNodes(scale float64) []splitNode {
	out := make([]splitNode, len(t.nodes))
	for i, nd := range t.nodes {
		out[i] = splitNode{feature: nd.feature, threshold: nd.threshold, left: nd.left, right: nd.right}
		if nd.feature < 0 {
			out[i].leaf = scale * nd.value
		}
	}
	return out
}

// Flatten compiles the tree into the flat layout.
func (t *Tree) Flatten() (*Flat, error) {
	return compileFlat(t.NumFeatures, PostNone, 0, [][]splitNode{t.splitNodes(1)}, forestPadDepth)
}

// Flatten compiles the forest into the flat layout.
func (fo *Forest) Flatten() (*Flat, error) {
	trees := make([][]splitNode, len(fo.Trees))
	for i, t := range fo.Trees {
		trees[i] = t.splitNodes(1)
	}
	return compileFlat(fo.NumFeatures, PostMean, 0, trees, forestPadDepth)
}

// Flatten compiles the boosted ensemble into the flat layout.
func (g *GBT) Flatten() (*Flat, error) {
	stages := make([][]splitNode, len(g.trees))
	for i, t := range g.trees {
		stages[i] = t.splitNodes(g.shrinkage)
	}
	return compileFlat(g.NumFeatures, PostLogistic, g.prior, stages, math.MaxInt32)
}

// codeBytes is the size of the code tiles holding n rows: one tile of
// len(src)*256 bytes per block of up to 256 rows.
func (fl *Flat) codeBytes(n int) int {
	return (n + flatRowBlock - 1) / flatRowBlock * len(fl.src) * flatRowBlock
}

// Cols lists the features the engine splits on, ascending: the values
// each row Codes quantizes holds, in this order. A learner that never
// splits reads none. The slice is shared and must not be written.
func (fl *Flat) Cols() []int32 { return fl.src }

// ID names the engine within the process: every compiled or decoded
// engine gets its own, never reused, so code tiles cached under it are
// never descended by another engine's nodes.
func (fl *Flat) ID() uint64 { return fl.id }

// Codes quantizes n rows into fresh code tiles, the input ScoreCodes
// descends: one tile per started block of 256 rows, 256 bytes per code
// column, one byte per code. It asks fill for the rows a few at a
// time: fill(r0, x) writes rows r0, r0+1, ... row-major into x, each
// holding the row's features Cols()[0], Cols()[1], ..., as many rows as
// x holds. The float scratch x is the call's only allocation besides
// the tiles, and no float matrix of all n rows ever exists.
func (fl *Flat) Codes(n int, fill func(r0 int, x []float64)) []uint8 {
	codes := make([]uint8, fl.codeBytes(n))
	if len(codes) == 0 {
		return codes // no rows, or a split-free engine that reads no codes
	}
	f, tile := len(fl.src), len(fl.src)*flatRowBlock
	x := make([]float64, min(n, codeSubRows)*f)
	var quant time.Duration
	for r0 := 0; r0 < n; r0 += codeSubRows {
		rows := min(codeSubRows, n-r0)
		fill(r0, x[:rows*f])
		q0 := time.Now()
		fl.quantize(x, rows, codes[r0/flatRowBlock*tile+r0%flatRowBlock:])
		quant += time.Since(q0)
	}
	quantizeSeconds.ObserveDuration(quant)
	return codes
}

// ScoreCodes writes each row's score into out[i] for the n rows whose
// code tiles Codes(n, ...) returned from this engine: a lone tree's or a
// forest's class-1 probability, or a GBT's P(class 1), bit-identical to
// the walked learner's PredictProbaInto(row)[1]. Allocates nothing.
func (fl *Flat) ScoreCodes(codes []uint8, n int, out []float64) {
	if n < 0 || len(codes) != fl.codeBytes(n) {
		panic(fmt.Sprintf("mltree: %d code bytes are not the tiles of %d rows x %d code columns", len(codes), n, len(fl.src)))
	}
	if len(out) < n {
		panic(fmt.Sprintf("mltree: batch output of %d values for %d rows", len(out), n))
	}
	start := time.Now()
	tile := len(fl.src) * flatRowBlock
	for b, i0 := 0, 0; i0 < n; b, i0 = b+1, i0+flatRowBlock {
		fl.descendBlock(codes[b*tile:], out[i0:min(n, i0+flatRowBlock)])
	}
	descendSeconds.ObserveDuration(time.Since(start))
}

// descendBlock writes the scores of one block's rows, len(blk) <= 256 of
// them, from its code tile cb: every tree descends the 8-lane groups,
// the rows past the last full group descend as one more group into an
// 8-slot scratch, then each row takes the post-step. ScoreCodes runs it
// once per tile.
func (fl *Flat) descendBlock(cb []uint8, blk []float64) {
	rows := len(blk)
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
		inv := 1 / float64(len(fl.roots))
		for i := range blk {
			blk[i] *= inv
		}
	case PostLogistic:
		for i := range blk {
			blk[i] = sigmoid(blk[i])
		}
	}
}

// NumTrees returns the compiled tree (or boosting stage) count.
func (fl *Flat) NumTrees() int { return len(fl.roots) }

// Post returns the per-row step the engine applies to its tree sums.
func (fl *Flat) Post() Post { return fl.post }

// FlatBytes reports the engine's memory footprint.
func (fl *Flat) FlatBytes() int64 {
	return int64(len(fl.nodes))*8 + int64(len(fl.leafVals))*8 +
		int64(len(fl.cuts))*8 + int64(len(fl.cutOff))*4 + int64(len(fl.src))*4 +
		int64(len(fl.keys))*8 + int64(len(fl.roots))*8 + 120
}

// finishDerived computes each cut's comparison key, at the cut's own
// offset, and names the engine.
func (fl *Flat) finishDerived() {
	fl.id = flatIDs.Add(1)
	fl.keys = make([]uint64, len(fl.cuts))
	for i, v := range fl.cuts {
		fl.keys[i] = thresholdKey(v)
	}
}

// quantize fills the code tile for a row block: cb[c*flatRowBlock+r]
// is row r's code in code column c, for the first rows rows of the
// row-major block x, whose rows hold one value per code column. cb may
// start at a row offset within a tile, as long as the rows end inside
// it. Iteration is column-major so one column's cut keys (at most 2KB)
// stay L1-resident for the whole block and the tile writes are
// sequential. Every column takes the same search, plain Go on every
// architecture: a branchless lower bound over the column's m cut keys in
// total-order key space (v <= cut iff rowKey(v) <= cutKey, see
// floatKey). Each step adds the half-width under a borrow mask, so every
// compare is pure integer arithmetic with no data-dependent branch for
// the predictor to miss on, and the search reads no key past index m-1.
// NaN needs no special case: its key sits above every cut key, so it
// lower-bounds to m, above every stored cut code, routing right at each
// node exactly like the walked path. Four rows run concurrently so their
// load chains pipeline; the last rows%4 run one at a time. Every value is
// read once.
func (fl *Flat) quantize(x []float64, rows int, cb []uint8) {
	stride := uintptr(len(fl.src)) * 8
	xp := unsafe.Pointer(unsafe.SliceData(x))
	cbp := unsafe.Pointer(unsafe.SliceData(cb))
	for c := range fl.src {
		kp := unsafe.Pointer(&fl.keys[fl.cutOff[c]])
		dp := unsafe.Add(cbp, c*flatRowBlock)
		p := unsafe.Add(xp, uintptr(c)*8)
		r := 0
		m := int(fl.cutOff[c+1] - fl.cutOff[c])
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

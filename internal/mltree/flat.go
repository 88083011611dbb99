package mltree

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"
)

// This file is the batched flat inference engine: Flatten compiles each
// fitted learner's pointer-laden node structs into one contiguous block
// of packed 16-byte node records (threshold key plus one word packing
// feature and both child codes),
// with the leaf-vs-internal distinction folded into the child index
// itself — a child code c >= 0 is the next internal node, c < 0 is leaf
// ^c — and all leaf payloads pooled into one block (probabilities for
// classifiers, values for regressors) instead of one heap slice per leaf
// node. The packed record keeps a node visit to a single cache line; the
// first cut used four parallel arrays (SoA), which touched four lines
// per visit.
//
// Descent is fully branchless. Tree splits are near 50/50 by
// construction, so a branchy walk eats a pipeline flush roughly every
// other node and that — not memory latency — bounds per-row prediction
// on cache-resident ensembles. The usual cure is a conditional move, but
// the compiler refuses to emit one for a value that feeds a load address
// (the next node index always does), so the child select is done in
// integer arithmetic instead: thresholds are stored as order-preserving
// uint64 keys (IEEE-754 sign-magnitude folded into a total order, see
// floatKey), the comparison is a borrow bit out of a 64-bit subtract,
// and the borrow expands to a mask that picks the child. Eight rows
// descend a tree concurrently; their cursor chains are independent, so
// the CPU overlaps the dependent node and feature loads that bound a
// one-row-at-a-time walk, and the tree loop sits inside the descent
// kernel so consecutive trees' chains overlap too.
//
// The batch entry points evaluate row blocks per tree pass (row-blocked,
// tree-major iteration: a block of rows stays hot in cache while every
// tree descends it, and each tree's nodes stay hot across the block),
// and the steady state allocates nothing: callers own the output
// buffers and accumulation writes straight into them.
//
// Flat scores are bit-identical to the walked pointer path: descent
// takes the same predicate (value <= threshold, see floatKey for the
// NaN and signed-zero cases) on the same thresholds, and ensemble
// accumulation adds per-row contributions in the same tree order with
// the same final scaling (blocking and the multi-lane descent reorder row
// scheduling, never a row's own additions), so flattened == walked
// extends every cached == uncached / workers 1 == N determinism
// invariant to the serving path.

// flatNode is one packed internal node: 16 bytes — the threshold key and
// a single word holding feature (16 bits) and both child codes (24 bits
// each, sign-extended on unpack). A descent level issues exactly two node
// loads; the field shifts are plain ALU work that overlaps the
// comparison chain. A child code c >= 0 continues to internal node c,
// c < 0 terminates at pooled leaf ^c.
type flatNode struct {
	tkey uint64 // floatKey(threshold), -0 canonicalized to +0
	pack uint64 // feature<<48 | (left&0xFFFFFF)<<24 | right&0xFFFFFF
}

// packNode packs a split's feature and child codes into the node word.
func packNode(feature, left, right int32) uint64 {
	return uint64(uint16(feature))<<48 | uint64(uint32(left)&0xFFFFFF)<<24 | uint64(uint32(right)&0xFFFFFF)
}

// unpackLeft and unpackRight sign-extend the 24-bit child codes.
func unpackLeft(pack uint64) int32  { return int32(uint32(pack>>24)<<8) >> 8 }
func unpackRight(pack uint64) int32 { return int32(uint32(pack)<<8) >> 8 }

// flatCap guards the packed layout's capacity: 24-bit child codes (8M
// internal nodes and 8M leaves per block) and 16-bit features. Every
// ensemble this repo trains sits orders of magnitude below these; a
// hypothetical giant one must keep scoring walked.
func flatCap(internal, leaves, features int) {
	if internal >= 1<<23 || leaves >= 1<<23 || features >= 1<<16 {
		panic(fmt.Sprintf("mltree: ensemble exceeds flat layout capacity (%d internal nodes, %d leaves, %d features)",
			internal, leaves, features))
	}
}

// floatKey maps float64 bit patterns to uint64 keys whose unsigned order
// is the IEEE-754 value order: non-negative floats keep their bits with
// the sign bit set (monotone already), negative floats invert all bits
// (reversing their descending bit order and placing them below the
// non-negatives). The map is strictly monotone on everything except the
// two zeros, which land adjacent (key(-0) < key(+0)); thresholdKey
// canonicalizes -0 thresholds to +0 so "v <= t" and "key(v) <= key(t)"
// agree for every non-NaN v. NaNs are handled by the explicit guard in
// the descent (a NaN feature value must compare false, i.e. go right).
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

// vGT reports row-value bits vb > threshold key tk — the negation of
// the walked path's v <= t predicate — as the borrow bit out of
// tk - key(vb), returning 1 or 0 as a uint64 so callers can expand it
// into a child-select mask. NaNs must compare "not <=", i.e. greater:
// positive NaNs key above every threshold naturally, and the one guard
// maps negative NaNs (bit patterns above negative infinity's, which the
// key map would otherwise sort below everything) to the top key — the
// compiler turns it into a conditional move, so no input data steers a
// branch.
func vGT(vb, tk uint64) uint64 {
	_, borrow := bits.Sub64(tk, rowKey(vb), 0)
	return borrow
}

// rowKey maps a row value's bit pattern to its comparison key: floatKey
// with negative NaNs lifted to the top key (the compiler turns the guard
// into a conditional move, so no input data steers a branch).
func rowKey(vb uint64) uint64 {
	vk := floatKey(vb)
	if vb > 0xfff0000000000000 { // negative NaN
		vk = ^uint64(0)
	}
	return vk
}

// fillKeyTile compiles an 8-row group's values into a transposed f x 8
// key tile: kb[ft*8+lane] = rowKey(rows[lane][ft]). Hoisting the key map
// out of the descent pays it once per value instead of once per tree
// visit, and the transposed layout lets the descent kernel address all
// eight lanes off one base pointer — the per-lane byte offset folds into
// the load's addressing mode instead of occupying eight registers.
func fillKeyTile(x []float64, f, lanes int, kb []uint64) {
	for lane := 0; lane < lanes; lane++ {
		row := x[lane*f : (lane+1)*f]
		for ft, v := range row {
			kb[ft*lanes+lane] = rowKey(math.Float64bits(v))
		}
	}
}

// keyTilePool recycles key tiles across batch calls so the steady state
// allocates nothing.
var keyTilePool = sync.Pool{New: func() any { return new([]uint64) }}

func getKeyTile(f int) (*[]uint64, []uint64) {
	p := keyTilePool.Get().(*[]uint64)
	if cap(*p) < f*8 {
		*p = make([]uint64, f*8)
	}
	return p, (*p)[:f*8]
}

// flatNodes is the shared flat node block for all four learner kinds.
type flatNodes struct {
	nodes []flatNode
}

// leaf descends one row from code c to its (negative) leaf code — the
// remainder path for rows past the last full 4-wide group, taking the
// identical predicate on the identical thresholds.
func (fn *flatNodes) leaf(row []float64, c int32) int32 {
	nodes := fn.nodes
	for c >= 0 {
		nd := &nodes[c]
		vb := math.Float64bits(row[nd.pack>>48])
		if vGT(vb, nd.tkey) == 0 {
			c = unpackLeft(nd.pack)
		} else {
			c = unpackRight(nd.pack)
		}
	}
	return c
}

// leaf4 descends rows base/f..base/f+3 of the row-major block x
// concurrently from the same root, with no data-dependent branches: per
// lane and level, the comparison borrow (vLE) expands to a mask that
// picks the child in integer arithmetic. The four cursor chains carry no
// dependencies on each other, so the CPU overlaps their node and
// feature-value loads — the dependent load chain that bounds a one-row
// walk; each row still takes exactly the comparisons leaf takes, in the
// same order. A finished cursor (negative code) redoes node 0's loads
// with a clamped index — node 0 is always cache-hot — and its final mask
// keeps the leaf code, so a lane that bottoms out early costs no
// mispredicted exit branch while its neighbours keep descending (the
// continue condition ANDs the four codes: negative only once every lane
// holds a leaf). The lane bodies are written out rather than factored
// into a helper, and the rows addressed as offsets into the shared block
// rather than four slice headers: the helper ends up past the inlining
// budget, and the extra slice headers spill the loop out of registers.
func (fn *flatNodes) leaf4(x []float64, base, f int, root int32) (int32, int32, int32, int32) {
	nodes := fn.nodes
	// Reinterpret the rows as raw bit patterns: the descent compares
	// order-preserving integer keys, so loading through a uint64 view
	// skips a float-register round trip on the critical load-to-address
	// dependency chain.
	xb := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(x))), len(x))
	b0, b1, b2, b3 := base, base+f, base+2*f, base+3*f
	c0, c1, c2, c3 := root, root, root, root
	for c0&c1&c2&c3 >= 0 {
		{
			nd := &nodes[c0&^(c0>>31)]
			pk := nd.pack
			gm := -int32(vGT(xb[b0+int(pk>>48)], nd.tkey))
			l, r := unpackLeft(pk), unpackRight(pk)
			n := l ^ ((l ^ r) & gm)
			c0 = n ^ ((n ^ c0) & (c0 >> 31))
		}
		{
			nd := &nodes[c1&^(c1>>31)]
			pk := nd.pack
			gm := -int32(vGT(xb[b1+int(pk>>48)], nd.tkey))
			l, r := unpackLeft(pk), unpackRight(pk)
			n := l ^ ((l ^ r) & gm)
			c1 = n ^ ((n ^ c1) & (c1 >> 31))
		}
		{
			nd := &nodes[c2&^(c2>>31)]
			pk := nd.pack
			gm := -int32(vGT(xb[b2+int(pk>>48)], nd.tkey))
			l, r := unpackLeft(pk), unpackRight(pk)
			n := l ^ ((l ^ r) & gm)
			c2 = n ^ ((n ^ c2) & (c2 >> 31))
		}
		{
			nd := &nodes[c3&^(c3>>31)]
			pk := nd.pack
			gm := -int32(vGT(xb[b3+int(pk>>48)], nd.tkey))
			l, r := unpackLeft(pk), unpackRight(pk)
			n := l ^ ((l ^ r) & gm)
			c3 = n ^ ((n ^ c3) & (c3 >> 31))
		}
	}
	return c0, c1, c2, c3
}

// sumLeaves8 descends every tree of a forest for the 8-row group whose
// transposed key tile is kb (see fillKeyTile), accumulating vals[^leaf]
// per tree into the eight running sums — in ensemble order per lane, so
// each row's additions associate exactly as the walked path's. The
// structural facts shaping the kernel: iteration latency is the
// per-level dependency chain (node index -> node load -> key load ->
// borrow compare -> child select, ~20-25 cycles), and the lanes plus
// the trees behind them are independent chains the out-of-order core
// runs underneath it, so throughput is lanes / chain. The key tile is
// addressed off a single base register (the lane offset is a constant
// displacement in the load), which keeps the eight cursors in registers.
// Descent is two-phase per tree: the Flatten-time padding guarantees
// every path at least phase1[t] edges, so the first loop is counted and
// clamp-free (see sumLeavesPadded8); the second is the general loop for
// the deep tail, where a finished lane (negative code) spins on node 0
// with a clamped index while its final mask keeps the leaf code, the
// continue condition ANDing the eight codes. Lane bodies are written
// out rather than factored into a helper (a helper lands past the
// inlining budget and a call per lane-level costs more than the step
// itself), and loads go through unchecked pointer arithmetic: every
// index is in range by construction — child codes index the node block
// they were compiled into, flatCap bounds them at pack time, and
// features are < f by fitting. The unsafe.Pointer locals keep the
// backing arrays reachable for the duration of the call. The child
// select runs on the packed 24-bit codes (h holds feature-low bits and
// left, the low word holds left-low bits and right; the stray high byte
// shifts out during sign extension).
func (fn *flatNodes) sumLeaves8(kb []uint64, roots, phase1 []int32, vals []float64,
	s0, s1, s2, s3, s4, s5, s6, s7 float64) (float64, float64, float64, float64, float64, float64, float64, float64) {
	np := unsafe.Pointer(unsafe.SliceData(fn.nodes))
	kp := unsafe.Pointer(unsafe.SliceData(kb))
	for ti, root := range roots {
		c0, c1, c2, c3, c4, c5, c6, c7 := root, root, root, root, root, root, root, root
		for d := phase1[ti]; d > 0; d-- {
			{
				a := unsafe.Add(np, uintptr(uint32(c0))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+0))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c0 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c1))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+8))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c1 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c2))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+16))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c2 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c3))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+24))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c3 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c4))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+32))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c4 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c5))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+40))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c5 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c6))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+48))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c6 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c7))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+56))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c7 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
		}
		for c0&c1&c2&c3&c4&c5&c6&c7 >= 0 {
			{
				a := unsafe.Add(np, uintptr(uint32(c0&^(c0>>31)))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+0))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				nn := int32((h^((h^uint32(pk))&gm))<<8) >> 8
				c0 = nn ^ ((nn ^ c0) & (c0 >> 31))
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c1&^(c1>>31)))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+8))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				nn := int32((h^((h^uint32(pk))&gm))<<8) >> 8
				c1 = nn ^ ((nn ^ c1) & (c1 >> 31))
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c2&^(c2>>31)))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+16))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				nn := int32((h^((h^uint32(pk))&gm))<<8) >> 8
				c2 = nn ^ ((nn ^ c2) & (c2 >> 31))
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c3&^(c3>>31)))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+24))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				nn := int32((h^((h^uint32(pk))&gm))<<8) >> 8
				c3 = nn ^ ((nn ^ c3) & (c3 >> 31))
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c4&^(c4>>31)))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+32))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				nn := int32((h^((h^uint32(pk))&gm))<<8) >> 8
				c4 = nn ^ ((nn ^ c4) & (c4 >> 31))
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c5&^(c5>>31)))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+40))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				nn := int32((h^((h^uint32(pk))&gm))<<8) >> 8
				c5 = nn ^ ((nn ^ c5) & (c5 >> 31))
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c6&^(c6>>31)))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+48))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				nn := int32((h^((h^uint32(pk))&gm))<<8) >> 8
				c6 = nn ^ ((nn ^ c6) & (c6 >> 31))
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c7&^(c7>>31)))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+56))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				nn := int32((h^((h^uint32(pk))&gm))<<8) >> 8
				c7 = nn ^ ((nn ^ c7) & (c7 >> 31))
			}
		}
		s0 += vals[int(^c0)]
		s1 += vals[int(^c1)]
		s2 += vals[int(^c2)]
		s3 += vals[int(^c3)]
		s4 += vals[int(^c4)]
		s5 += vals[int(^c5)]
		s6 += vals[int(^c6)]
		s7 += vals[int(^c7)]
	}
	return s0, s1, s2, s3, s4, s5, s6, s7
}

// sumLeavesPadded8 is the boosted-ensemble descent kernel: it requires a
// node block compiled with depth padding (see GBT.Flatten), where every
// root-to-leaf path of stage t has exactly depths[t] edges — dummy
// pass-through nodes with both child codes equal extend short paths, so
// a comparison on them cannot change the leaf reached. Two properties
// follow. The inner loop is a counted loop (no data steers any branch in
// the descent, so no tree-exit misprediction ever flushes the cross-tree
// work the out-of-order window has started), and a cursor is a valid
// internal index for every one of the depths[t] iterations, so the
// clamp and leaf-keep masks the general kernels carry vanish from the
// dependency chain: a lane step is two node loads, one key-tile load,
// a borrow compare, and the masked child select — light enough that
// eight lanes hold in registers where the general kernel's clamp and
// keep temps would spill. Unchecked addressing and liveness are as in
// sumLeaves8.
func (fn *flatNodes) sumLeavesPadded8(kb []uint64, roots, depths []int32, vals []float64,
	s0, s1, s2, s3, s4, s5, s6, s7 float64) (float64, float64, float64, float64, float64, float64, float64, float64) {
	np := unsafe.Pointer(unsafe.SliceData(fn.nodes))
	kp := unsafe.Pointer(unsafe.SliceData(kb))
	for ti, root := range roots {
		c0, c1, c2, c3, c4, c5, c6, c7 := root, root, root, root, root, root, root, root
		for d := depths[ti]; d > 0; d-- {
			{
				a := unsafe.Add(np, uintptr(uint32(c0))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+0))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c0 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c1))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+8))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c1 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c2))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+16))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c2 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c3))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+24))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c3 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c4))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+32))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c4 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c5))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+40))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c5 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c6))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+48))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c6 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
			{
				a := unsafe.Add(np, uintptr(uint32(c7))*16)
				pk := *(*uint64)(unsafe.Add(a, 8))
				vk := *(*uint64)(unsafe.Add(kp, uintptr(pk>>48)*64+56))
				_, borrow := bits.Sub64(*(*uint64)(a), vk, 0)
				gm := uint32(0) - uint32(borrow)
				h := uint32(pk >> 24)
				c7 = int32((h^((h^uint32(pk))&gm))<<8) >> 8
			}
		}
		s0 += vals[int(^c0)]
		s1 += vals[int(^c1)]
		s2 += vals[int(^c2)]
		s3 += vals[int(^c3)]
		s4 += vals[int(^c4)]
		s5 += vals[int(^c5)]
		s6 += vals[int(^c6)]
		s7 += vals[int(^c7)]
	}
	return s0, s1, s2, s3, s4, s5, s6, s7
}

// flatRowBlock is the ensemble batch loops' row-block size: a block's
// feature rows (flatRowBlock x F floats) stay L2-resident while every
// tree of the ensemble descends them, instead of restreaming the whole
// batch once per tree.
const flatRowBlock = 256

// FlatTree is a Tree compiled into the flat layout. Unlike the ensemble
// compilers it neither pads nor key-tiles: a single tree's descent is a
// dozen levels per row, far too little work to amortize mapping every
// feature value to its comparison key, so the score path keeps the
// 4-wide raw-value descent.
type FlatTree struct {
	NumFeatures int
	NumClasses  int
	flatNodes
	descentMode
	leafProbs []float64 // pooled: leaf l's probabilities at [l*NumClasses, (l+1)*NumClasses)
	root      int32     // root code; a leaf code for single-leaf trees
}

// descentMode carries a flat learner's optional binned twin (see
// flatbinned.go) and the override that forces the float-keyed kernels.
// Flatten compiles the twin only for hist-trained models, where the
// quantized descent is bit-identical by construction.
type descentMode struct {
	binned      *binnedEnsemble
	floatForced bool
}

func (dm *descentMode) useBinned() bool { return dm.binned != nil && !dm.floatForced }

// DescentMode reports the comparison kernel batch scoring uses:
// "binned" (uint8 bin-code compares over quantized row tiles) or
// "float" (total-order key compares). Hist-trained models within the
// binned layout's capacity run binned; everything else runs float.
func (dm *descentMode) DescentMode() string {
	if dm.useBinned() {
		return "binned"
	}
	return "float"
}

// SetFloatDescent forces (true) or re-allows (false) the float-keyed
// descent on a model whose binned twin exists — the benchmark and test
// hook for measuring or cross-checking both kernels on one model. Not
// safe to call concurrently with batch scoring.
func (dm *descentMode) SetFloatDescent(force bool) { dm.floatForced = force }

// flatIndex assigns every node its flat code: internal nodes get dense
// indices in node order, leaves get pooled leaf codes in node order. The
// shared compiler core for all four learners (rnode uses its twin below).
func flatIndexTree(nodes []node) (codes []int32, internal, leaves int) {
	codes = make([]int32, len(nodes))
	for i := range nodes {
		if nodes[i].feature < 0 {
			codes[i] = ^int32(leaves)
			leaves++
		} else {
			codes[i] = int32(internal)
			internal++
		}
	}
	return codes, internal, leaves
}

// Flatten compiles the tree into the flat batched layout. The tree must
// hold at least one node (every fitted or decoded tree does).
func (t *Tree) Flatten() *FlatTree {
	if len(t.nodes) == 0 {
		panic("mltree: Flatten on empty tree")
	}
	codes, internal, leaves := flatIndexTree(t.nodes)
	flatCap(internal, leaves, t.NumFeatures)
	ft := &FlatTree{
		NumFeatures: t.NumFeatures,
		NumClasses:  t.NumClasses,
		flatNodes:   newFlatNodes(internal),
		leafProbs:   make([]float64, leaves*t.NumClasses),
		root:        codes[0],
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		c := codes[i]
		if nd.feature < 0 {
			copy(ft.leafProbs[int(^c)*t.NumClasses:], nd.probs)
			continue
		}
		ft.nodes[c] = flatNode{tkey: thresholdKey(nd.threshold),
			pack: packNode(nd.feature, codes[nd.left], codes[nd.right])}
	}
	if t.histTrained {
		ft.binned = compileBinnedTrees([]*Tree{t}, t.NumFeatures, forestPadDepth)
		// A lone tree defaults to the float kernel: quantizing every
		// row-feature pays off only when the codes amortize over many
		// trees, and a single descent per row never recoups it.
		// SetFloatDescent(false) opts back in.
		ft.floatForced = true
	}
	return ft
}

// newFlatNodes allocates the packed record block for n internal nodes.
func newFlatNodes(n int) flatNodes {
	return flatNodes{nodes: make([]flatNode, n)}
}

// checkBatch validates a batch call's shapes once, up front, so the hot
// descent loops can index unchecked.
func checkBatch(x []float64, n, f int, out []float64, perRow int) {
	if n < 0 || len(x) != n*f {
		panic(fmt.Sprintf("mltree: batch of %d values is not %d rows x %d features", len(x), n, f))
	}
	if len(out) < n*perRow {
		panic(fmt.Sprintf("mltree: batch output of %d values for %d rows x %d per row", len(out), n, perRow))
	}
}

// PredictProbaBatch writes each row's class probability vector into
// out[i*NumClasses:(i+1)*NumClasses] for the n x NumFeatures row-major
// block x. Bit-identical to Tree.PredictProbaInto per row; allocates
// nothing.
func (ft *FlatTree) PredictProbaBatch(x []float64, n int, out []float64) {
	checkBatch(x, n, ft.NumFeatures, out, ft.NumClasses)
	f, k := ft.NumFeatures, ft.NumClasses
	put := func(i int, c int32) {
		copy(out[i*k:(i+1)*k], ft.leafProbs[int(^c)*k:(int(^c)+1)*k])
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		c0, c1, c2, c3 := ft.leaf4(x, i*f, f, ft.root)
		put(i, c0)
		put(i+1, c1)
		put(i+2, c2)
		put(i+3, c3)
	}
	for ; i < n; i++ {
		put(i, ft.leaf(x[i*f:(i+1)*f], ft.root))
	}
}

// ScoreBatch writes each row's class-1 probability into out[i] — the
// serving path's ranking score. Bit-identical to PredictProba(row)[1].
func (ft *FlatTree) ScoreBatch(x []float64, n int, out []float64) {
	checkBatch(x, n, ft.NumFeatures, out, 1)
	f, k := ft.NumFeatures, ft.NumClasses
	if ft.useBinned() {
		scoreBatchBinned(ft.binned, x, n, 1, func(i int) float64 {
			return ft.leafProbs[int(^ft.leaf(x[i*f:(i+1)*f], ft.root))*k+1]
		}, out)
		return
	}
	i := 0
	for ; i+4 <= n; i += 4 {
		c0, c1, c2, c3 := ft.leaf4(x, i*f, f, ft.root)
		out[i] = ft.leafProbs[int(^c0)*k+1]
		out[i+1] = ft.leafProbs[int(^c1)*k+1]
		out[i+2] = ft.leafProbs[int(^c2)*k+1]
		out[i+3] = ft.leafProbs[int(^c3)*k+1]
	}
	for ; i < n; i++ {
		out[i] = ft.leafProbs[int(^ft.leaf(x[i*f:(i+1)*f], ft.root))*k+1]
	}
}

// FlatBytes reports the flat layout's memory footprint.
func (ft *FlatTree) FlatBytes() int64 {
	b := int64(len(ft.nodes))*16 + int64(len(ft.leafProbs))*8 + 64
	if ft.binned != nil {
		b += ft.binned.bytes()
	}
	return b
}

// FlatForest is a Forest compiled into one pooled SoA block: every tree's
// internal nodes share the same parallel arrays (per-tree roots index into
// them) and every leaf probability vector lives in one contiguous pool.
type FlatForest struct {
	NumFeatures int
	NumClasses  int
	flatNodes
	descentMode
	roots     []int32   // per-tree root codes (global)
	phase1    []int32   // per-tree clamp-free descent depth: every path has at least this many edges
	leafProbs []float64 // pooled across all trees
	leafP1    []float64 // pooled class-1 probability per leaf: the serving score path's view
}

// forestPadDepth caps the forest's leaf padding: leaves shallower than
// min(cap, tree depth) get dummy pass-through links (see GBT.Flatten)
// so the descent kernel can run that many clamp-free counted levels
// before switching to the general clamped loop for the deep tail.
// Forest trees are deep and unbalanced, so padding to full depth would
// inflate the node block severalfold; the cap trades a modest inflation
// for stripping the clamp and keep masks from most levels walked
// (measured best between 11 and 14 on the benchmark forest, whose mean
// leaf depth is ~12; deeper caps lose more to node inflation than the
// cheaper levels save).
const forestPadDepth = 12

// Flatten compiles the forest into the pooled flat layout, padding
// shallow leaves up to forestPadDepth.
func (fo *Forest) Flatten() *FlatForest {
	ff := &FlatForest{NumFeatures: fo.NumFeatures, NumClasses: fo.NumClasses,
		roots:  make([]int32, len(fo.Trees)),
		phase1: make([]int32, len(fo.Trees))}
	for ti, t := range fo.Trees {
		if len(t.nodes) == 0 {
			panic("mltree: Flatten on forest with empty tree")
		}
		pad := min(int32(forestPadDepth), treeDepth(t.nodes, 0))
		var emit func(i, depth int32) int32
		emit = func(i, depth int32) int32 {
			nd := &t.nodes[i]
			if nd.feature < 0 {
				c := ^int32(len(ff.leafP1))
				ff.leafProbs = append(ff.leafProbs, nd.probs...)
				ff.leafP1 = append(ff.leafP1, nd.probs[1])
				for d := depth; d < pad; d++ {
					link := int32(len(ff.nodes))
					ff.nodes = append(ff.nodes, flatNode{pack: packNode(0, c, c)})
					c = link
				}
				return c
			}
			c := int32(len(ff.nodes))
			ff.nodes = append(ff.nodes, flatNode{})
			l := emit(nd.left, depth+1)
			r := emit(nd.right, depth+1)
			ff.nodes[c] = flatNode{tkey: thresholdKey(nd.threshold),
				pack: packNode(nd.feature, l, r)}
			return c
		}
		ff.roots[ti] = emit(0, 0)
		ff.phase1[ti] = pad
	}
	flatCap(len(ff.nodes), len(ff.leafP1), fo.NumFeatures)
	if histTrainedAll(fo.Trees) {
		ff.binned = compileBinnedTrees(fo.Trees, fo.NumFeatures, forestPadDepth)
	}
	return ff
}

// PredictProbaBatch writes each row's ensemble-averaged probability vector
// into out[i*NumClasses:(i+1)*NumClasses]. Iteration is row-blocked
// tree-major with a 4-wide descent (see the file comment); per row the
// trees accumulate in ensemble order with the same final 1/T scaling as
// the walked path, so the result is bit-identical to
// Forest.PredictProbaInto. Allocates nothing.
func (ff *FlatForest) PredictProbaBatch(x []float64, n int, out []float64) {
	checkBatch(x, n, ff.NumFeatures, out, ff.NumClasses)
	f, k := ff.NumFeatures, ff.NumClasses
	for i := range out[:n*k] {
		out[i] = 0
	}
	add := func(i int, c int32) {
		lp := ff.leafProbs[int(^c)*k : (int(^c)+1)*k]
		o := out[i*k : (i+1)*k]
		for j := range o {
			o[j] += lp[j]
		}
	}
	for i0 := 0; i0 < n; i0 += flatRowBlock {
		i1 := min(i0+flatRowBlock, n)
		for _, root := range ff.roots {
			i := i0
			for ; i+4 <= i1; i += 4 {
				c0, c1, c2, c3 := ff.leaf4(x, i*f, f, root)
				add(i, c0)
				add(i+1, c1)
				add(i+2, c2)
				add(i+3, c3)
			}
			for ; i < i1; i++ {
				add(i, ff.leaf(x[i*f:(i+1)*f], root))
			}
		}
	}
	inv := 1.0 / float64(len(ff.roots))
	for i := range out[:n*k] {
		out[i] *= inv
	}
}

// ScoreBatch writes each row's ensemble-averaged class-1 probability into
// out[i]. Per row the trees accumulate in ensemble order with the same
// final 1/T scaling as the walked path, so the scores are bit-identical
// to PredictProba(row)[1]. Allocates nothing.
func (ff *FlatForest) ScoreBatch(x []float64, n int, out []float64) {
	checkBatch(x, n, ff.NumFeatures, out, 1)
	f := ff.NumFeatures
	inv := 1.0 / float64(len(ff.roots))
	if ff.useBinned() {
		scoreBatchBinned(ff.binned, x, n, inv, func(i int) float64 {
			row := x[i*f : (i+1)*f]
			s := 0.0
			for _, root := range ff.roots {
				s += ff.leafP1[int(^ff.leaf(row, root))]
			}
			return s
		}, out)
		return
	}
	kt, kb := getKeyTile(f)
	defer keyTilePool.Put(kt)
	i := 0
	for ; i+8 <= n; i += 8 {
		fillKeyTile(x[i*f:(i+8)*f], f, 8, kb)
		s0, s1, s2, s3, s4, s5, s6, s7 := ff.sumLeaves8(kb, ff.roots, ff.phase1, ff.leafP1,
			0, 0, 0, 0, 0, 0, 0, 0)
		out[i] = s0 * inv
		out[i+1] = s1 * inv
		out[i+2] = s2 * inv
		out[i+3] = s3 * inv
		out[i+4] = s4 * inv
		out[i+5] = s5 * inv
		out[i+6] = s6 * inv
		out[i+7] = s7 * inv
	}
	for ; i < n; i++ {
		row := x[i*f : (i+1)*f]
		s := 0.0
		for _, root := range ff.roots {
			s += ff.leafP1[int(^ff.leaf(row, root))]
		}
		out[i] = s * inv
	}
}

// NumTrees returns the compiled ensemble size.
func (ff *FlatForest) NumTrees() int { return len(ff.roots) }

// FlatBytes reports the flat layout's memory footprint.
func (ff *FlatForest) FlatBytes() int64 {
	b := int64(len(ff.nodes))*16 + int64(len(ff.leafProbs))*8 +
		int64(len(ff.leafP1))*8 + int64(len(ff.roots))*8 + 64
	if ff.binned != nil {
		b += ff.binned.bytes()
	}
	return b
}

// FlatRegressionTree is a RegressionTree compiled into the SoA layout.
type FlatRegressionTree struct {
	NumFeatures int
	flatNodes
	leafValues []float64 // pooled: one value per leaf
	root       int32
}

// flatIndexRTree is flatIndexTree over regression nodes.
func flatIndexRTree(nodes []rnode) (codes []int32, internal, leaves int) {
	codes = make([]int32, len(nodes))
	for i := range nodes {
		if nodes[i].feature < 0 {
			codes[i] = ^int32(leaves)
			leaves++
		} else {
			codes[i] = int32(internal)
			internal++
		}
	}
	return codes, internal, leaves
}

// treeDepth returns the longest root-to-leaf edge count under node i.
func treeDepth(nodes []node, i int32) int32 {
	if nodes[i].feature < 0 {
		return 0
	}
	return 1 + max(treeDepth(nodes, nodes[i].left), treeDepth(nodes, nodes[i].right))
}

// rtreeDepth returns the longest root-to-leaf edge count under node i.
func rtreeDepth(nodes []rnode, i int32) int32 {
	if nodes[i].feature < 0 {
		return 0
	}
	return 1 + max(rtreeDepth(nodes, nodes[i].left), rtreeDepth(nodes, nodes[i].right))
}

// Flatten compiles the regression tree into the flat batched layout.
func (t *RegressionTree) Flatten() *FlatRegressionTree {
	if len(t.nodes) == 0 {
		panic("mltree: Flatten on empty regression tree")
	}
	codes, internal, leaves := flatIndexRTree(t.nodes)
	flatCap(internal, leaves, t.NumFeatures)
	ft := &FlatRegressionTree{
		NumFeatures: t.NumFeatures,
		flatNodes:   newFlatNodes(internal),
		leafValues:  make([]float64, leaves),
		root:        codes[0],
	}
	for i := range t.nodes {
		nd := &t.nodes[i]
		c := codes[i]
		if nd.feature < 0 {
			ft.leafValues[int(^c)] = nd.value
			continue
		}
		ft.nodes[c] = flatNode{tkey: thresholdKey(nd.threshold),
			pack: packNode(nd.feature, codes[nd.left], codes[nd.right])}
	}
	return ft
}

// PredictBatch writes each row's leaf value into out[i]. Bit-identical to
// RegressionTree.Predict per row; allocates nothing.
func (ft *FlatRegressionTree) PredictBatch(x []float64, n int, out []float64) {
	checkBatch(x, n, ft.NumFeatures, out, 1)
	f := ft.NumFeatures
	i := 0
	for ; i+4 <= n; i += 4 {
		c0, c1, c2, c3 := ft.leaf4(x, i*f, f, ft.root)
		out[i] = ft.leafValues[int(^c0)]
		out[i+1] = ft.leafValues[int(^c1)]
		out[i+2] = ft.leafValues[int(^c2)]
		out[i+3] = ft.leafValues[int(^c3)]
	}
	for ; i < n; i++ {
		out[i] = ft.leafValues[int(^ft.leaf(x[i*f:(i+1)*f], ft.root))]
	}
}

// FlatBytes reports the flat layout's memory footprint.
func (ft *FlatRegressionTree) FlatBytes() int64 {
	return int64(len(ft.nodes))*16 + int64(len(ft.leafValues))*8 + 64
}

// FlatGBT is a GBT compiled into one pooled SoA block across all boosting
// stages, with every leaf value in one contiguous pool.
type FlatGBT struct {
	NumFeatures int
	prior       float64
	flatNodes
	descentMode
	roots    []int32
	depths   []int32   // per-stage max depth: the counted-descent iteration bound
	leafAdds []float64 // pooled shrinkage * leaf value per leaf: exactly the walked path's per-stage addend
}

// Flatten compiles the boosted ensemble into the pooled flat layout,
// padding every stage to uniform depth: a leaf shallower than its
// stage's max depth gets a chain of dummy pass-through nodes (both
// child codes point at the next link, so the comparison outcome is
// irrelevant and any in-range feature serves as the probe). The padding
// buys the descent kernel a fully counted, clamp-free inner loop — see
// sumLeavesPadded8 — for a few percent more nodes on the shallow,
// near-complete trees boosting grows.
func (g *GBT) Flatten() *FlatGBT {
	fg := &FlatGBT{NumFeatures: g.NumFeatures, prior: g.prior,
		roots:  make([]int32, len(g.trees)),
		depths: make([]int32, len(g.trees))}
	for ti := range g.trees {
		t := g.trees[ti]
		if len(t.nodes) == 0 {
			panic("mltree: Flatten on GBT with empty stage")
		}
		maxDepth := rtreeDepth(t.nodes, 0)
		var emit func(i, depth int32) int32
		emit = func(i, depth int32) int32 {
			nd := &t.nodes[i]
			if nd.feature < 0 {
				// The walked path adds shrinkage*value per stage; the
				// product of the same two floats is the same float here.
				c := ^int32(len(fg.leafAdds))
				fg.leafAdds = append(fg.leafAdds, g.shrinkage*nd.value)
				for k := depth; k < maxDepth; k++ {
					link := int32(len(fg.nodes))
					fg.nodes = append(fg.nodes, flatNode{pack: packNode(0, c, c)})
					c = link
				}
				return c
			}
			c := int32(len(fg.nodes))
			fg.nodes = append(fg.nodes, flatNode{})
			l := emit(nd.left, depth+1)
			r := emit(nd.right, depth+1)
			fg.nodes[c] = flatNode{tkey: thresholdKey(nd.threshold),
				pack: packNode(nd.feature, l, r)}
			return c
		}
		fg.roots[ti] = emit(0, 0)
		fg.depths[ti] = maxDepth
	}
	flatCap(len(fg.nodes), len(fg.leafAdds), g.NumFeatures)
	if histTrainedGBT(g.trees) {
		fg.binned = compileBinnedGBT(g)
	}
	return fg
}

// RawBatch writes each row's margin F(x) (log-odds scale) into out[i].
// Row-blocked tree-major iteration with the 4-wide descent; per row the
// stages accumulate in boosting order, so the margins are bit-identical
// to GBT.Raw. Allocates nothing.
func (fg *FlatGBT) RawBatch(x []float64, n int, out []float64) {
	checkBatch(x, n, fg.NumFeatures, out, 1)
	f := fg.NumFeatures
	for i := range out[:n] {
		out[i] = fg.prior
	}
	fg.accumulate(x, n, f, out, 1)
}

// accumulate adds every stage's shrunk leaf value to out[i*stride] per
// row (stride 1 = RawBatch's layout, 2 = PredictProbaBatch's class-1
// slots), in boosting order per row starting from the value already in
// the slot — the walked path's exact association.
func (fg *FlatGBT) accumulate(x []float64, n, f int, out []float64, stride int) {
	if fg.useBinned() {
		accumulateBinned(fg.binned, x, n, func(i int, s float64) float64 {
			row := x[i*f : (i+1)*f]
			for _, root := range fg.roots {
				s += fg.leafAdds[int(^fg.leaf(row, root))]
			}
			return s
		}, out, stride)
		return
	}
	kt, kb := getKeyTile(f)
	defer keyTilePool.Put(kt)
	i := 0
	for ; i+8 <= n; i += 8 {
		fillKeyTile(x[i*f:(i+8)*f], f, 8, kb)
		s0, s1, s2, s3, s4, s5, s6, s7 := fg.sumLeavesPadded8(kb, fg.roots, fg.depths, fg.leafAdds,
			out[i*stride], out[(i+1)*stride], out[(i+2)*stride], out[(i+3)*stride],
			out[(i+4)*stride], out[(i+5)*stride], out[(i+6)*stride], out[(i+7)*stride])
		out[i*stride] = s0
		out[(i+1)*stride] = s1
		out[(i+2)*stride] = s2
		out[(i+3)*stride] = s3
		out[(i+4)*stride] = s4
		out[(i+5)*stride] = s5
		out[(i+6)*stride] = s6
		out[(i+7)*stride] = s7
	}
	for ; i < n; i++ {
		row := x[i*f : (i+1)*f]
		s := out[i*stride]
		for _, root := range fg.roots {
			s += fg.leafAdds[int(^fg.leaf(row, root))]
		}
		out[i*stride] = s
	}
}

// ScoreBatch writes each row's P(class 1) into out[i] — bit-identical to
// PredictProba(row)[1] on the walked path.
func (fg *FlatGBT) ScoreBatch(x []float64, n int, out []float64) {
	fg.RawBatch(x, n, out)
	for i := range out[:n] {
		out[i] = sigmoid(out[i])
	}
}

// PredictProbaBatch writes each row's [P(0), P(1)] pair into
// out[i*2:(i+1)*2]. Allocates nothing: margins accumulate in the class-1
// slots, then collapse through the logistic function in place.
func (fg *FlatGBT) PredictProbaBatch(x []float64, n int, out []float64) {
	checkBatch(x, n, fg.NumFeatures, out, 2)
	f := fg.NumFeatures
	for i := 0; i < n; i++ {
		out[i*2+1] = fg.prior
	}
	if n > 0 {
		// out[1:] at stride 2 lands each addition in row i's class-1 slot.
		fg.accumulate(x, n, f, out[1:], 2)
	}
	for i := 0; i < n; i++ {
		p := sigmoid(out[i*2+1])
		out[i*2] = 1 - p
		out[i*2+1] = p
	}
}

// Rounds returns the compiled stage count.
func (fg *FlatGBT) Rounds() int { return len(fg.roots) }

// FlatBytes reports the flat layout's memory footprint.
func (fg *FlatGBT) FlatBytes() int64 {
	b := int64(len(fg.nodes))*16 + int64(len(fg.leafAdds))*8 +
		int64(len(fg.roots))*8 + 80
	if fg.binned != nil {
		b += fg.binned.bytes()
	}
	return b
}

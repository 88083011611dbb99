package mltree

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"
	"unsafe"
)

// This file is the quantized-code descent mode of the flat engine: the
// second compilation target Flatten produces for hist-trained models.
//
// Hist training (binned.go) only ever places split thresholds at the
// binner's cut points, so per feature an ensemble uses at most 255
// distinct thresholds (one per bin boundary). Collect each feature's
// distinct thresholds into an ascending cut array and quantize a raw
// value to its lower-bound index code(v) = min{i : cuts[i] >= v}; then
// for every non-NaN v and every cut index k,
//
//	v <= cuts[k]  <=>  code(v) <= k
//
// (code(v) <= k iff cuts[k] >= v, by the ascending order). A NaN value
// quantizes to code m (its total-order key sits above every finite cut
// key), which is greater than every stored cut code (at most m-1), so
// NaN routes right at every node, exactly the walked path's "NaN <= t
// is false". Descent on uint8 codes is therefore bit-identical to
// descent on the floats — same child at every node, same leaf, same
// pooled payload — while the comparison shrinks from an 8-byte
// total-order key to one byte: the transposed row tile is 8x smaller
// and a packed node is 8 bytes instead of 16.
//
// Nodes use a sibling-pair layout: an internal node's two children
// always occupy adjacent slots, so the descent step is an add of the
// compare bit instead of a two-way select —
//
//	internal: feature<<48 | cutCode<<40 | firstChild   (bit 63 clear)
//	leaf:     1<<63 | 0xFF<<40 | leafIdx<<20 | ownSlot
//
// with firstChild/ownSlot in bits 0..19 and features capped below
// 2^15 so bit 63 distinguishes the two. A step extracts t = word>>40,
// loads the row's code for the node's feature at tile offset t&0x7FFF00
// (exactly feature*256 — the code tile row stride is 256), and advances
// to firstChild + ((cut-code)>>31): borrow set means cut < code, the
// go-right condition. A leaf word is a fixed point of that step: its
// cut field 0xFF is >= every code, so it self-loops on its own slot.
// Self-looping leaves replace the old pad-chain trick entirely — the
// counted phase can run any number of levels past a shallow leaf, and
// the clamped phase tests "all lanes done" as the sign of the AND of
// the eight node words in flight. Ensembles past capacity (2^20 node
// slots or leaves, 2^15 features, 255 cuts on one feature) keep the
// float-keyed mode: compile returns nil and Flatten leaves the binned
// twin unset.
//
// The batch loops differ from the float engine's in two deliberate
// ways. Quantization happens once per row block, feature-major with
// four interleaved branch-free lower-bound searches in total-order key
// space, so its cost — the binned mode's only per-row overhead — is
// amortized over every tree level the ensemble descends. Features with
// many cuts use a per-feature two-level radix table — exponent slot,
// then a mantissa-bit sub-bucket holding at most one cut — resolving
// the code in two dependent table loads plus one key compare; the rest
// binary search with borrow-mask arithmetic (never a data-dependent
// branch: a branching search mispredicts ~50% per level by
// construction).
// Descent is tree-major over the whole block: one tree's nodes (8
// bytes each, a few KB for typical trees) stay L1-resident across all
// of the block's 8-lane groups, where the float engine's
// all-trees-per-8-rows order re-streams the full ensemble from L2 for
// every group. Per-row accumulation order over trees is unchanged
// (each row's out slot adds tree 0, then tree 1, ...), so sums are
// bit-identical to the float path's.
type binnedEnsemble struct {
	f     int
	nodes []uint64
	roots []int32
	// phase1[t] is tree t's counted clamp-free descent depth: at most
	// the tree's depth (exactly it for GBT stages, so the clamped loop
	// exits on its first test); self-looping leaves make any count safe.
	phase1   []int32
	leafVals []float64 // pooled per-leaf payload: class-1 prob or shrunk leaf value
	cuts     []float64 // concatenated ascending per-feature cut values
	cutOff   []int32   // len f+1; feature j's cuts are cuts[cutOff[j]:cutOff[j+1]]

	// Everything below is derived from the fields above by finishDerived
	// (called by compile and by the artifact decoder), never serialized.
	pkeys []uint64      // per-feature ascending cut keys, each run + one ^0 sentinel
	pkOff []int32       // len f+1; feature j's padded keys start at pkOff[j]
	fq    []binnedQuant // len f; per-feature radix acceleration (zero value = search)
	meta  []uint64      // per-exponent sub-table descriptors (subOff<<32|mask<<8|shift)
	tab   []uint8       // concatenated sub-bucket -> lower-bound-code tables
	used  []int32       // features with at least one cut, the only ones quantized
}

// binnedQuant is one feature's two-level radix quantization table.
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
// key compare. radix is false for features with few cuts (a 3-4 level
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

// finishDerived populates the derived search structures (pkeys, pkOff,
// fq, tab, used) from cuts/cutOff.
func (be *binnedEnsemble) finishDerived() {
	be.used = be.used[:0]
	be.pkeys = be.pkeys[:0]
	be.meta = be.meta[:0]
	be.tab = be.tab[:0]
	be.pkOff = make([]int32, be.f+1)
	be.fq = make([]binnedQuant, be.f)
	for j := 0; j < be.f; j++ {
		be.pkOff[j] = int32(len(be.pkeys))
		m := int(be.cutOff[j+1] - be.cutOff[j])
		if m == 0 {
			continue
		}
		be.used = append(be.used, int32(j))
		for _, c := range be.cuts[be.cutOff[j]:be.cutOff[j+1]] {
			be.pkeys = append(be.pkeys, thresholdKey(c))
		}
		be.pkeys = append(be.pkeys, ^uint64(0))
		if m > binnedRadixMinCuts {
			keys := be.pkeys[be.pkOff[j] : int(be.pkOff[j])+m]
			be.fq[j] = buildRadix(keys, &be.meta, &be.tab)
		}
	}
	be.pkOff[be.f] = int32(len(be.pkeys))
}

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

// binnedCapacity bounds: 20-bit child slots and leaf indexes, 15-bit
// features (bit 63 of a node word is the leaf flag), 8-bit cut codes.
const (
	binnedMaxNodes = 1 << 20
	binnedMaxCuts  = 255
	binnedMaxFeat  = 1 << 15
)

// The descent step addresses the code tile as (word>>40)&0x7FFF00 =
// feature*256, which is only the tile offset if the row-block stride
// is exactly 256.
var _ [flatRowBlock - 256][0]byte

// bpackNode packs an internal binned node word.
func bpackNode(feature int32, cut uint8, firstChild int32) uint64 {
	return uint64(uint16(feature))<<48 | uint64(cut)<<40 | uint64(uint32(firstChild)&0xFFFFF)
}

// bleafWord packs a self-looping leaf word occupying slot.
func bleafWord(leafIdx, slot int32) uint64 {
	return 1<<63 | uint64(0xFF)<<40 | uint64(uint32(leafIdx)&0xFFFFF)<<20 | uint64(uint32(slot)&0xFFFFF)
}

// cutCollector gathers each feature's distinct split thresholds.
type cutCollector struct {
	f       int
	perFeat [][]float64
}

func newCutCollector(f int) *cutCollector {
	return &cutCollector{f: f, perFeat: make([][]float64, f)}
}

func (cc *cutCollector) add(feature int32, thr float64) {
	cc.perFeat[feature] = append(cc.perFeat[feature], thr)
}

// finish sorts and dedupes each feature's thresholds into the flat cut
// layout. Returns ok=false when any feature exceeds the 255-cut budget
// (impossible for hist-trained ensembles, whose thresholds come from at
// most 255 bin boundaries per feature, but guarded regardless).
func (cc *cutCollector) finish() (cuts []float64, cutOff []int32, ok bool) {
	cutOff = make([]int32, cc.f+1)
	for j, ts := range cc.perFeat {
		if len(ts) > 0 {
			slices.Sort(ts)
			ts = slices.Compact(ts)
			if len(ts) > binnedMaxCuts {
				return nil, nil, false
			}
			cc.perFeat[j] = ts
			cuts = append(cuts, ts...)
		}
		cutOff[j+1] = int32(len(cuts))
	}
	return cuts, cutOff, true
}

// cutCode returns the cut index of an exact threshold of feature j.
func (be *binnedEnsemble) cutCode(feature int32, thr float64) uint8 {
	lo, hi := be.cutOff[feature], be.cutOff[feature+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if be.cuts[mid] < thr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= be.cutOff[feature+1] || be.cuts[lo] != thr {
		panic(fmt.Sprintf("mltree: threshold %v of feature %d missing from binned cut set", thr, feature))
	}
	return uint8(lo - be.cutOff[feature])
}

// compileBinnedTrees builds the binned twin of a classification-tree
// ensemble (a forest, or a single tree as a one-element ensemble).
// Returns nil when the ensemble exceeds the binned layout's capacity.
func compileBinnedTrees(trees []*Tree, f int, padCap int32) *binnedEnsemble {
	if f >= binnedMaxFeat {
		return nil
	}
	cc := newCutCollector(f)
	for _, t := range trees {
		for i := range t.nodes {
			if t.nodes[i].feature >= 0 {
				cc.add(t.nodes[i].feature, t.nodes[i].threshold)
			}
		}
	}
	cuts, cutOff, ok := cc.finish()
	if !ok {
		return nil
	}
	be := &binnedEnsemble{f: f,
		roots: make([]int32, len(trees)), phase1: make([]int32, len(trees)),
		cuts: cuts, cutOff: cutOff}
	be.finishDerived()
	for ti, t := range trees {
		var emit func(src, slot int32)
		emit = func(src, slot int32) {
			nd := &t.nodes[src]
			if nd.feature < 0 {
				li := int32(len(be.leafVals))
				be.leafVals = append(be.leafVals, nd.probs[1])
				be.nodes[slot] = bleafWord(li, slot)
				return
			}
			fc := int32(len(be.nodes))
			be.nodes = append(be.nodes, 0, 0)
			be.nodes[slot] = bpackNode(nd.feature, be.cutCode(nd.feature, nd.threshold), fc)
			emit(nd.left, fc)
			emit(nd.right, fc+1)
		}
		root := int32(len(be.nodes))
		be.nodes = append(be.nodes, 0)
		emit(0, root)
		be.roots[ti] = root
		be.phase1[ti] = min(padCap, treeDepth(t.nodes, 0))
	}
	if len(be.nodes) > binnedMaxNodes || len(be.leafVals) > binnedMaxNodes {
		return nil
	}
	return be
}

// compileBinnedGBT builds the binned twin of a boosted ensemble. Each
// stage's counted depth is exact (its max leaf depth), so the clamped
// loop exits on its first test. Returns nil past capacity.
func compileBinnedGBT(g *GBT) *binnedEnsemble {
	if g.NumFeatures >= binnedMaxFeat {
		return nil
	}
	cc := newCutCollector(g.NumFeatures)
	for _, t := range g.trees {
		for i := range t.nodes {
			if t.nodes[i].feature >= 0 {
				cc.add(t.nodes[i].feature, t.nodes[i].threshold)
			}
		}
	}
	cuts, cutOff, ok := cc.finish()
	if !ok {
		return nil
	}
	be := &binnedEnsemble{f: g.NumFeatures,
		roots: make([]int32, len(g.trees)), phase1: make([]int32, len(g.trees)),
		cuts: cuts, cutOff: cutOff}
	be.finishDerived()
	for ti := range g.trees {
		t := g.trees[ti]
		var emit func(src, slot int32)
		emit = func(src, slot int32) {
			nd := &t.nodes[src]
			if nd.feature < 0 {
				li := int32(len(be.leafVals))
				be.leafVals = append(be.leafVals, g.shrinkage*nd.value)
				be.nodes[slot] = bleafWord(li, slot)
				return
			}
			fc := int32(len(be.nodes))
			be.nodes = append(be.nodes, 0, 0)
			be.nodes[slot] = bpackNode(nd.feature, be.cutCode(nd.feature, nd.threshold), fc)
			emit(nd.left, fc)
			emit(nd.right, fc+1)
		}
		root := int32(len(be.nodes))
		be.nodes = append(be.nodes, 0)
		emit(0, root)
		be.roots[ti] = root
		be.phase1[ti] = rtreeDepth(t.nodes, 0)
	}
	if len(be.nodes) > binnedMaxNodes || len(be.leafVals) > binnedMaxNodes {
		return nil
	}
	return be
}

// histTrainedAll reports whether every tree of a forest came from the
// histogram engine (the binned mode's eligibility condition).
func histTrainedAll(trees []*Tree) bool {
	for _, t := range trees {
		if !t.histTrained {
			return false
		}
	}
	return len(trees) > 0
}

// histTrainedGBT is histTrainedAll over boosting stages.
func histTrainedGBT(trees []*RegressionTree) bool {
	for _, t := range trees {
		if !t.histTrained {
			return false
		}
	}
	return len(trees) > 0
}

// codeTilePool recycles f x flatRowBlock code tiles across batch calls.
var codeTilePool = sync.Pool{New: func() any { return new([]uint8) }}

func getCodeTile(f int) (*[]uint8, []uint8) {
	p := codeTilePool.Get().(*[]uint8)
	if cap(*p) < f*flatRowBlock {
		*p = make([]uint8, f*flatRowBlock)
	}
	return p, (*p)[:f*flatRowBlock]
}

// quantize fills the code tile for a row block: cb[ft*flatRowBlock+r]
// is row r's bin code on feature ft, for the first rows rows of the
// row-major block x. Iteration is feature-major so one feature's search
// structures (at most 2KB of keys plus a small two-level radix table)
// stay L1-resident for the whole block and the tile writes are
// sequential. The lower bound runs in total-order key space (v <= cut
// iff rowKey(v) <= cutKey — the float engine's established invariant),
// which makes every compare pure integer arithmetic with no
// data-dependent branch for the predictor to miss on, and NaN needs no
// special case — its key sits above every finite cut key, so it
// lower-bounds to m, above every stored cut code, routing right at
// each node exactly like the walked path. Radix-mapped features clamp
// the key into the cut span (the residual compares the unclamped key,
// so out-of-span rows stay exact), index the exponent's meta word, and
// resolve in two table loads plus one masked compare; the rest take a
// borrow-mask binary search. Four rows run concurrently so the load
// chains pipeline. Only features the ensemble actually splits on are
// quantized — unused tile stripes are never read by the descent.
func (be *binnedEnsemble) quantize(x []float64, rows int, cb []uint8) {
	stride := uintptr(be.f) * 8
	xp := unsafe.Pointer(unsafe.SliceData(x))
	cbp := unsafe.Pointer(unsafe.SliceData(cb))
	for _, ft := range be.used {
		kp := unsafe.Pointer(&be.pkeys[be.pkOff[ft]])
		dp := unsafe.Add(cbp, int(ft)*flatRowBlock)
		p := unsafe.Add(xp, uintptr(ft)*8)
		r := 0
		m := int(be.cutOff[ft+1] - be.cutOff[ft])
		if binnedHaveAVX512 && m <= binnedSIMDMaxCuts {
			// AVX-512 linear compare-count over all the cuts at once;
			// leftover rows past the last multiple of 8 fall through to
			// the scalar binary search below.
			if g8 := rows &^ 7; g8 > 0 {
				quantCmpAVX512(p, stride, dp, g8, kp, m)
				r = g8
				p = unsafe.Add(p, uintptr(g8)*stride)
			}
		} else if q := &be.fq[ft]; q.radix {
			// One row per iteration, every op branchless: with no
			// data-dependent branch in the body, out-of-order execution
			// overlaps the per-row load chains across iterations on its
			// own, and the small live set keeps the clamp in CMOVs
			// instead of the spill-and-branch code a manually
			// interleaved body provokes.
			kb, kl := q.kbase, q.klast
			e1b := uint64(q.e1base)
			mp := unsafe.Pointer(&be.meta[q.metaOff])
			tp := unsafe.Pointer(unsafe.SliceData(be.tab))
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

// addTreeBlock descends tree ti for every full 8-lane group of the
// block's first g8 rows (g8 a multiple of 8), adding the reached leaf
// values into out[r*stride] per row. Phase one is the counted
// clamp-free loop over the tree's compiled depth bound; phase two is
// the general loop, running while the AND of the eight node words in
// flight is non-negative (bit 63 set on all words means every lane
// rests on a self-looping leaf — for GBT stages the counted depth is
// exact, so this fails immediately). A lane step is one 8-byte node
// word load, one 1-byte code load at tile offset (word>>40)&0x7FFF00
// (the node's feature times the 256-row tile stride), and an add of
// the cut<code borrow bit to the adjacent-children base slot.
// Unchecked addressing mirrors sumLeaves8: child slots index the block
// they were compiled into and features are < f by fitting.
func (be *binnedEnsemble) addTreeBlock(cb []uint8, g8, ti int, out []float64, stride int) {
	np := unsafe.Pointer(unsafe.SliceData(be.nodes))
	cbp := unsafe.Pointer(unsafe.SliceData(cb))
	vals := be.leafVals
	rw := *(*uint64)(unsafe.Add(np, uintptr(be.roots[ti])*8))
	p1 := be.phase1[ti]
	for g := 0; g < g8; g += 8 {
		cp := unsafe.Add(cbp, g)
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
		o := out[g*stride:]
		o[0] += vals[uint32(w0>>20)&0xFFFFF]
		o[1*stride] += vals[uint32(w1>>20)&0xFFFFF]
		o[2*stride] += vals[uint32(w2>>20)&0xFFFFF]
		o[3*stride] += vals[uint32(w3>>20)&0xFFFFF]
		o[4*stride] += vals[uint32(w4>>20)&0xFFFFF]
		o[5*stride] += vals[uint32(w5>>20)&0xFFFFF]
		o[6*stride] += vals[uint32(w6>>20)&0xFFFFF]
		o[7*stride] += vals[uint32(w7>>20)&0xFFFFF]
	}
}

// scoreBatchBinned is the binned twin of the ensemble ScoreBatch loops:
// per 256-row block it quantizes exactly the rows the 8-lane groups will
// consume, descends tree-major, and scales the accumulated sums by inv.
// Rows past the last full 8-lane group take tail — the caller's
// float-layout scalar walk, bit-identical by the quantization lemma — so
// no scalar binned path exists to keep in sync.
func scoreBatchBinned(be *binnedEnsemble, x []float64, n int, inv float64, tail func(i int) float64, out []float64) {
	f := be.f
	ct, cb := getCodeTile(f)
	defer codeTilePool.Put(ct)
	start := time.Now()
	var quant time.Duration
	for i0 := 0; i0 < n; i0 += flatRowBlock {
		i1 := min(i0+flatRowBlock, n)
		g8 := (i1 - i0) &^ 7
		q0 := time.Now()
		be.quantize(x[i0*f:], g8, cb)
		quant += time.Since(q0)
		blockOut := out[i0:]
		for i := range blockOut[:g8] {
			blockOut[i] = 0
		}
		for ti := range be.roots {
			be.addTreeBlock(cb, g8, ti, blockOut, 1)
		}
		for i := range blockOut[:g8] {
			blockOut[i] *= inv
		}
		for i := i0 + g8; i < i1; i++ {
			out[i] = tail(i) * inv
		}
	}
	quantizeSeconds.ObserveDuration(quant)
	descendSeconds.ObserveDuration(time.Since(start) - quant)
}

// accumulateBinned is the binned twin of FlatGBT.accumulate: stage sums
// start from the value already in each row's out slot (the prior, or a
// class-1 slot) and accumulate in boosting order, the walked path's
// exact association. tail continues the remaining rows' sums from their
// slot values via the float layout's scalar walk, keeping that
// association too.
func accumulateBinned(be *binnedEnsemble, x []float64, n int, tail func(i int, s float64) float64, out []float64, stride int) {
	f := be.f
	ct, cb := getCodeTile(f)
	defer codeTilePool.Put(ct)
	start := time.Now()
	var quant time.Duration
	for i0 := 0; i0 < n; i0 += flatRowBlock {
		i1 := min(i0+flatRowBlock, n)
		g8 := (i1 - i0) &^ 7
		q0 := time.Now()
		be.quantize(x[i0*f:], g8, cb)
		quant += time.Since(q0)
		for ti := range be.roots {
			be.addTreeBlock(cb, g8, ti, out[i0*stride:], stride)
		}
		for i := i0 + g8; i < i1; i++ {
			out[i*stride] = tail(i, out[i*stride])
		}
	}
	quantizeSeconds.ObserveDuration(quant)
	descendSeconds.ObserveDuration(time.Since(start) - quant)
}

// bytes reports the binned twin's memory footprint.
func (be *binnedEnsemble) bytes() int64 {
	return int64(len(be.nodes))*8 + int64(len(be.leafVals))*8 +
		int64(len(be.cuts))*8 + int64(len(be.cutOff))*4 +
		int64(len(be.pkeys))*8 + int64(len(be.pkOff))*4 +
		int64(len(be.fq))*24 + int64(len(be.meta))*8 + int64(len(be.tab)) +
		int64(len(be.used))*4 + int64(len(be.roots))*8 + 96
}

package mltree

import (
	"fmt"
	"unsafe"

	"repro/internal/binenc"
)

// This file is the binary codec for the compiled flat learners — the
// payload of forecast artifacts, and the only serialized form of a fitted
// model. It writes the inference engine's own arrays as fixed-offset
// little-endian sections, each 8-byte aligned from the artifact's first
// byte. On a little-endian host a decode aliases those sections in place
// (see binenc's zero-copy readers), so loading a model from an aligned
// buffer — in particular an mmap'd .hotm file — touches none of the node
// bytes: load time is independent of node count, and the pages fault in
// lazily as descent first walks them.
//
// Decoding has two trust levels. The untrusted path (trusted=false,
// used by forecast.DecodeModel on arbitrary bytes) validates every
// structural invariant the unchecked descent kernels rely on: feature
// indexes within range, child codes inside the node block, leaf codes
// inside the pooled payload, acyclicity, and the per-tree depth
// contracts (forest phase1 is a lower bound on every root-to-leaf path;
// GBT stage depth is exact). That costs one O(nodes) pass. The trusted
// path (forecast's mmap loader, for operator-provisioned files — the
// same trust as the serving binary itself) skips the per-node pass and
// performs only the O(1)-per-section shape checks, which is what keeps
// the mmap load constant-time.

// appendFlatNodes writes the packed node block: u32 count, alignment
// padding, then each node's (tkey, pack) words little-endian — byte for
// byte the in-memory layout on little-endian hosts.
func appendFlatNodes(b []byte, nodes []flatNode) []byte {
	b = binenc.AppendU32(b, uint32(len(nodes)))
	b = binenc.AppendAlign8(b)
	for i := range nodes {
		b = binenc.AppendU64(b, nodes[i].tkey)
		b = binenc.AppendU64(b, nodes[i].pack)
	}
	return b
}

// decodeFlatNodes reads a node block, aliasing the buffer (zero copy)
// when the host is little-endian and the section is 8-byte aligned.
func decodeFlatNodes(r *binenc.Reader) []flatNode {
	n := int(r.U32())
	r.Align8()
	if n == 0 || r.Err() != nil {
		return nil
	}
	b := r.Raw(n * 16)
	if b == nil {
		return nil
	}
	if p := unsafe.Pointer(unsafe.SliceData(b)); binenc.NativeLittle() && uintptr(p)%8 == 0 {
		return unsafe.Slice((*flatNode)(p), n)
	}
	br := binenc.NewReader(b)
	out := make([]flatNode, n)
	for i := range out {
		out[i] = flatNode{tkey: br.U64(), pack: br.U64()}
	}
	return out
}

// analyzeFlat runs the untrusted path's structural pass over a float
// node block: per-node field checks plus an iterative tricolor DFS that
// rejects cycles and computes each node's min and max leaf depth (for
// the callers' phase1 / exact-depth contracts). Children appear at any
// index — pad chains point backward — so forward-only ordering cannot
// be assumed; the DFS is the termination proof the clamped descent
// loops need.
func analyzeFlat(nodes []flatNode, features, leaves int) (minD, maxD []int32, err error) {
	n := len(nodes)
	if n >= 1<<23 || leaves >= 1<<23 || leaves < 1 || features < 1 || features >= 1<<16 {
		return nil, nil, fmt.Errorf("mltree: flat block shape %d nodes, %d leaves, %d features exceeds layout capacity", n, leaves, features)
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	state := make([]uint8, n)
	minD = make([]int32, n)
	maxD = make([]int32, n)
	depth := func(c int32) (int32, int32) {
		if c < 0 {
			return 0, 0
		}
		return minD[c], maxD[c]
	}
	stack := make([]int32, 0, 64)
	for i := 0; i < n; i++ {
		if state[i] != white {
			continue
		}
		stack = append(stack[:0], int32(i))
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			if state[c] == black {
				stack = stack[:len(stack)-1]
				continue
			}
			nd := &nodes[c]
			l, rr := unpackLeft(nd.pack), unpackRight(nd.pack)
			if state[c] == white {
				state[c] = gray
				if ft := int(nd.pack >> 48); ft >= features {
					return nil, nil, fmt.Errorf("mltree: flat node %d splits on feature %d of %d", c, ft, features)
				}
				for _, ch := range [2]int32{l, rr} {
					if ch >= 0 {
						if int(ch) >= n {
							return nil, nil, fmt.Errorf("mltree: flat node %d has child %d of %d nodes", c, ch, n)
						}
						switch state[ch] {
						case white:
							stack = append(stack, ch)
						case gray:
							return nil, nil, fmt.Errorf("mltree: flat node block has a cycle through node %d", ch)
						}
					} else if int(^ch) >= leaves {
						return nil, nil, fmt.Errorf("mltree: flat node %d has leaf %d of %d", c, ^ch, leaves)
					}
				}
				continue
			}
			lmn, lmx := depth(l)
			rmn, rmx := depth(rr)
			minD[c] = 1 + min(lmn, rmn)
			maxD[c] = 1 + max(lmx, rmx)
			state[c] = black
			stack = stack[:len(stack)-1]
		}
	}
	return minD, maxD, nil
}

// checkFlatRoot validates one root code against the analyzed block and
// returns the root's min and max leaf depth.
func checkFlatRoot(root int32, nodes, leaves int, minD, maxD []int32) (int32, int32, error) {
	if root < 0 {
		if int(^root) >= leaves {
			return 0, 0, fmt.Errorf("mltree: flat root leaf %d of %d", ^root, leaves)
		}
		return 0, 0, nil
	}
	if int(root) >= nodes {
		return 0, 0, fmt.Errorf("mltree: flat root node %d of %d", root, nodes)
	}
	if minD == nil {
		return 0, 0, nil
	}
	return minD[root], maxD[root], nil
}

// appendBinned writes the optional binned twin: a presence byte, then
// the serialized arrays. The derived search structures (pkeys, radix
// tables, used set) are rebuilt at decode by finishDerived — they are
// O(features x cuts), independent of node count.
func appendBinned(b []byte, be *binnedEnsemble) []byte {
	if be == nil {
		return binenc.AppendU8(b, 0)
	}
	b = binenc.AppendU8(b, 1)
	b = binenc.AppendU32(b, uint32(be.f))
	b = binenc.AppendI32sRaw(b, be.roots)
	b = binenc.AppendI32sRaw(b, be.phase1)
	b = binenc.AppendI32sRaw(b, be.cutOff)
	b = binenc.AppendU64sRaw(b, be.nodes)
	b = binenc.AppendF64sRaw(b, be.leafVals)
	b = binenc.AppendF64sRaw(b, be.cuts)
	return b
}

// decodeBinned reads the optional binned twin. Shape checks (section
// lengths, cut monotonicity, root/phase ranges) always run — they are
// O(features + trees), never O(nodes). The untrusted path additionally
// verifies every packed node word, because the binned descent addresses
// nodes, code tiles and leaf values without bounds checks: an internal
// word must point strictly forward to an in-range sibling pair on an
// in-range feature, and a leaf word must be exactly the self-looping
// fixed point bleafWord compiles (anything else could step the descent
// out of the block or read a stranger's tile stripe).
func decodeBinned(r *binenc.Reader, features int, trusted bool) (*binnedEnsemble, error) {
	switch r.U8() {
	case 0:
		return nil, r.Err()
	case 1:
	default:
		return nil, fmt.Errorf("mltree: invalid binned-twin presence byte")
	}
	be := &binnedEnsemble{f: int(r.U32())}
	be.roots = r.I32sZeroCopy()
	be.phase1 = r.I32sZeroCopy()
	be.cutOff = r.I32sZeroCopy()
	be.nodes = r.U64sZeroCopy()
	be.leafVals = r.F64sZeroCopy()
	be.cuts = r.F64sZeroCopy()
	if err := r.Err(); err != nil {
		return nil, err
	}
	n, leaves := len(be.nodes), len(be.leafVals)
	switch {
	case be.f != features:
		return nil, fmt.Errorf("mltree: binned twin has %d features, learner %d", be.f, features)
	case features > binnedMaxFeat:
		return nil, fmt.Errorf("mltree: binned twin feature count %d exceeds capacity", features)
	case len(be.roots) == 0 || len(be.phase1) != len(be.roots):
		return nil, fmt.Errorf("mltree: binned twin has %d roots, %d phase bounds", len(be.roots), len(be.phase1))
	case n == 0 || n > binnedMaxNodes || leaves == 0 || leaves > binnedMaxNodes:
		return nil, fmt.Errorf("mltree: binned twin shape %d nodes, %d leaves exceeds capacity", n, leaves)
	case len(be.cutOff) != be.f+1:
		return nil, fmt.Errorf("mltree: binned twin has %d cut offsets for %d features", len(be.cutOff), be.f)
	}
	for ti, root := range be.roots {
		if root < 0 || int(root) >= n {
			return nil, fmt.Errorf("mltree: binned tree %d root %d of %d nodes", ti, root, n)
		}
		if p := be.phase1[ti]; p < 0 || int(p) > n {
			return nil, fmt.Errorf("mltree: binned tree %d phase bound %d of %d nodes", ti, p, n)
		}
	}
	if be.cutOff[0] != 0 || int(be.cutOff[be.f]) != len(be.cuts) {
		return nil, fmt.Errorf("mltree: binned cut offsets do not span the cut block")
	}
	for j := 0; j < be.f; j++ {
		lo, hi := be.cutOff[j], be.cutOff[j+1]
		if hi < lo || hi-lo > binnedMaxCuts {
			return nil, fmt.Errorf("mltree: binned feature %d has cut range [%d,%d)", j, lo, hi)
		}
		for i := lo + 1; i < hi; i++ {
			if thresholdKey(be.cuts[i-1]) >= thresholdKey(be.cuts[i]) {
				return nil, fmt.Errorf("mltree: binned feature %d cuts not strictly ascending at %d", j, i)
			}
		}
	}
	if !trusted {
		for i, w := range be.nodes {
			if w>>63 == 1 {
				leafIdx := int32(uint32(w>>20) & 0xFFFFF)
				if int(leafIdx) >= leaves || w != bleafWord(leafIdx, int32(i)) {
					return nil, fmt.Errorf("mltree: binned node %d is not a valid self-looping leaf", i)
				}
				continue
			}
			ft := int(w >> 48)
			fc := int(uint32(w) & 0xFFFFF)
			if ft >= features {
				return nil, fmt.Errorf("mltree: binned node %d splits on feature %d of %d", i, ft, features)
			}
			// Strictly forward sibling pairs are how the compiler emits
			// nodes, and they double as the termination proof: every
			// descent step increases the slot until a self-looping leaf.
			if fc <= i || fc+1 >= n {
				return nil, fmt.Errorf("mltree: binned node %d children at %d break forward order (%d nodes)", i, fc, n)
			}
		}
	}
	be.finishDerived()
	return be, nil
}

// AppendBinary appends the flat tree's serialized form.
func (ft *FlatTree) AppendBinary(b []byte) []byte {
	b = binenc.AppendU32(b, uint32(ft.NumFeatures))
	b = binenc.AppendU32(b, uint32(ft.NumClasses))
	b = binenc.AppendI32(b, ft.root)
	b = appendFlatNodes(b, ft.nodes)
	b = binenc.AppendF64sRaw(b, ft.leafProbs)
	return appendBinned(b, ft.binned)
}

// DecodeFlatTree reads a flat tree serialized by AppendBinary. See the
// file comment for the trusted flag's contract.
func DecodeFlatTree(r *binenc.Reader, trusted bool) (*FlatTree, error) {
	ft := &FlatTree{NumFeatures: int(r.U32()), NumClasses: int(r.U32())}
	ft.root = r.I32()
	ft.nodes = decodeFlatNodes(r)
	ft.leafProbs = r.F64sZeroCopy()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ft.NumFeatures < 1 || ft.NumClasses < 2 {
		return nil, fmt.Errorf("mltree: flat tree shape %d features x %d classes", ft.NumFeatures, ft.NumClasses)
	}
	if len(ft.leafProbs) == 0 || len(ft.leafProbs)%ft.NumClasses != 0 {
		return nil, fmt.Errorf("mltree: flat tree has %d pooled probs for %d classes", len(ft.leafProbs), ft.NumClasses)
	}
	leaves := len(ft.leafProbs) / ft.NumClasses
	var minD, maxD []int32
	if !trusted {
		var err error
		if minD, maxD, err = analyzeFlat(ft.nodes, ft.NumFeatures, leaves); err != nil {
			return nil, err
		}
	}
	if _, _, err := checkFlatRoot(ft.root, len(ft.nodes), leaves, minD, maxD); err != nil {
		return nil, err
	}
	var err error
	if ft.binned, err = decodeBinned(r, ft.NumFeatures, trusted); err != nil {
		return nil, err
	}
	// Flatten's lone-tree default: quantization cannot amortize over a
	// single descent per row, so the float kernel serves unless opted in.
	ft.floatForced = ft.binned != nil
	return ft, nil
}

// AppendBinary appends the flat forest's serialized form.
func (ff *FlatForest) AppendBinary(b []byte) []byte {
	b = binenc.AppendU32(b, uint32(ff.NumFeatures))
	b = binenc.AppendU32(b, uint32(ff.NumClasses))
	b = binenc.AppendI32sRaw(b, ff.roots)
	b = binenc.AppendI32sRaw(b, ff.phase1)
	b = appendFlatNodes(b, ff.nodes)
	b = binenc.AppendF64sRaw(b, ff.leafProbs)
	b = binenc.AppendF64sRaw(b, ff.leafP1)
	return appendBinned(b, ff.binned)
}

// DecodeFlatForest reads a flat forest serialized by AppendBinary.
func DecodeFlatForest(r *binenc.Reader, trusted bool) (*FlatForest, error) {
	ff := &FlatForest{NumFeatures: int(r.U32()), NumClasses: int(r.U32())}
	ff.roots = r.I32sZeroCopy()
	ff.phase1 = r.I32sZeroCopy()
	ff.nodes = decodeFlatNodes(r)
	ff.leafProbs = r.F64sZeroCopy()
	ff.leafP1 = r.F64sZeroCopy()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if ff.NumFeatures < 1 || ff.NumClasses < 2 {
		return nil, fmt.Errorf("mltree: flat forest shape %d features x %d classes", ff.NumFeatures, ff.NumClasses)
	}
	leaves := len(ff.leafP1)
	if len(ff.roots) == 0 || len(ff.phase1) != len(ff.roots) {
		return nil, fmt.Errorf("mltree: flat forest has %d roots, %d phase bounds", len(ff.roots), len(ff.phase1))
	}
	if leaves == 0 || len(ff.leafProbs) != leaves*ff.NumClasses {
		return nil, fmt.Errorf("mltree: flat forest has %d pooled probs for %d leaves x %d classes",
			len(ff.leafProbs), leaves, ff.NumClasses)
	}
	var minD, maxD []int32
	if !trusted {
		var err error
		if minD, maxD, err = analyzeFlat(ff.nodes, ff.NumFeatures, leaves); err != nil {
			return nil, err
		}
	}
	for ti, root := range ff.roots {
		mn, _, err := checkFlatRoot(root, len(ff.nodes), leaves, minD, maxD)
		if err != nil {
			return nil, fmt.Errorf("mltree: flat forest tree %d: %w", ti, err)
		}
		// phase1 is the counted clamp-free descent bound: the kernel
		// dereferences node codes unchecked for that many levels, so
		// every root-to-leaf path must be at least that long.
		if p := ff.phase1[ti]; p < 0 || (minD != nil && p > mn) {
			return nil, fmt.Errorf("mltree: flat forest tree %d phase bound %d exceeds min leaf depth %d", ti, p, mn)
		}
	}
	var err error
	if ff.binned, err = decodeBinned(r, ff.NumFeatures, trusted); err != nil {
		return nil, err
	}
	return ff, nil
}

// AppendBinary appends the flat GBT's serialized form.
func (fg *FlatGBT) AppendBinary(b []byte) []byte {
	b = binenc.AppendU32(b, uint32(fg.NumFeatures))
	b = binenc.AppendF64(b, fg.prior)
	b = binenc.AppendI32sRaw(b, fg.roots)
	b = binenc.AppendI32sRaw(b, fg.depths)
	b = appendFlatNodes(b, fg.nodes)
	b = binenc.AppendF64sRaw(b, fg.leafAdds)
	return appendBinned(b, fg.binned)
}

// DecodeFlatGBT reads a flat GBT serialized by AppendBinary.
func DecodeFlatGBT(r *binenc.Reader, trusted bool) (*FlatGBT, error) {
	fg := &FlatGBT{NumFeatures: int(r.U32()), prior: r.F64()}
	fg.roots = r.I32sZeroCopy()
	fg.depths = r.I32sZeroCopy()
	fg.nodes = decodeFlatNodes(r)
	fg.leafAdds = r.F64sZeroCopy()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if fg.NumFeatures < 1 {
		return nil, fmt.Errorf("mltree: flat GBT with %d features", fg.NumFeatures)
	}
	leaves := len(fg.leafAdds)
	if len(fg.roots) == 0 || len(fg.depths) != len(fg.roots) {
		return nil, fmt.Errorf("mltree: flat GBT has %d roots, %d depths", len(fg.roots), len(fg.depths))
	}
	if leaves == 0 {
		return nil, fmt.Errorf("mltree: flat GBT has no pooled leaf values")
	}
	var minD, maxD []int32
	if !trusted {
		var err error
		if minD, maxD, err = analyzeFlat(fg.nodes, fg.NumFeatures, leaves); err != nil {
			return nil, err
		}
	}
	for ti, root := range fg.roots {
		mn, mx, err := checkFlatRoot(root, len(fg.nodes), leaves, minD, maxD)
		if err != nil {
			return nil, fmt.Errorf("mltree: flat GBT stage %d: %w", ti, err)
		}
		// Stages are padded to uniform depth and descended by a fully
		// counted loop: every root-to-leaf path must be exactly depths[ti]
		// edges, or the kernel would read a non-leaf code as a leaf index.
		if d := fg.depths[ti]; d < 0 || (minD != nil && (mn != d || mx != d)) {
			return nil, fmt.Errorf("mltree: flat GBT stage %d depth [%d,%d] != compiled depth %d", ti, mn, mx, d)
		}
	}
	var err error
	if fg.binned, err = decodeBinned(r, fg.NumFeatures, trusted); err != nil {
		return nil, err
	}
	return fg, nil
}

package mltree

import (
	"fmt"

	"repro/internal/binenc"
)

// This file is the binary codec for the compiled flat engine — the
// payload of forecast artifacts, and the only serialized form of a fitted
// model. It writes the engine's own arrays as fixed-offset little-endian
// sections, each 8-byte aligned from the artifact's first byte. On a
// little-endian host a decode aliases those sections in place (see
// binenc's zero-copy readers), so loading a model from an aligned
// buffer — in particular an mmap'd .hotm file — touches none of the node
// bytes: load time is independent of node count, and the pages fault in
// lazily as descent first walks them. The derived search structures
// (cut keys, radix tables) are rebuilt at decode by finishDerived; they
// are O(code columns x cuts), independent of node count.
//
// Decoding has two trust levels. Both run the shape checks, which cost
// O(trees + code columns), never O(nodes): section lengths, capacity,
// root and phase ranges, every code column's source input column (one
// column per feature) and cut run (at most 255 cuts). The untrusted path
// (trusted=false, used by forecast.DecodeModel on arbitrary bytes) also
// verifies every packed node word, because the descent addresses nodes,
// code tiles and leaf values without bounds checks: an internal word must
// point strictly forward to an in-range sibling pair on an in-range code
// column, and a leaf word must be exactly the self-looping fixed point
// leafWord compiles (anything else could step the descent out of the
// block or read another column's tile stripe). The trusted path
// (forecast's mmap loader, for checksummed operator-provisioned files —
// the same trust as the serving binary itself) skips that per-node pass,
// which is what keeps the mmap load constant-time in the node count.

// AppendBinary appends the engine's serialized form.
func (fl *Flat) AppendBinary(b []byte) []byte {
	b = binenc.AppendU32(b, uint32(fl.NumFeatures))
	b = binenc.AppendU8(b, uint8(fl.post))
	b = binenc.AppendF64(b, fl.base)
	b = binenc.AppendI32sRaw(b, fl.roots)
	b = binenc.AppendI32sRaw(b, fl.phase1)
	b = binenc.AppendI32sRaw(b, fl.src)
	b = binenc.AppendI32sRaw(b, fl.cutOff)
	b = binenc.AppendU64sRaw(b, fl.nodes)
	b = binenc.AppendF64sRaw(b, fl.leafVals)
	return binenc.AppendF64sRaw(b, fl.cuts)
}

// DecodeFlat reads an engine serialized by AppendBinary. See the file
// comment for the trusted flag's contract.
func DecodeFlat(r *binenc.Reader, trusted bool) (*Flat, error) {
	fl := &Flat{NumFeatures: int(r.U32()), post: Post(r.U8()), base: r.F64()}
	fl.roots = r.I32sZeroCopy()
	fl.phase1 = r.I32sZeroCopy()
	fl.src = r.I32sZeroCopy()
	fl.cutOff = r.I32sZeroCopy()
	fl.nodes = r.U64sZeroCopy()
	fl.leafVals = r.F64sZeroCopy()
	fl.cuts = r.F64sZeroCopy()
	if err := r.Err(); err != nil {
		return nil, err
	}
	n, leaves, nc := len(fl.nodes), len(fl.leafVals), len(fl.src)
	switch {
	case fl.NumFeatures < 1:
		return nil, fmt.Errorf("mltree: flat engine reads %d features", fl.NumFeatures)
	case fl.post > PostLogistic:
		return nil, fmt.Errorf("mltree: flat engine has unknown post-step %d", fl.post)
	case len(fl.roots) == 0 || len(fl.phase1) != len(fl.roots):
		return nil, fmt.Errorf("mltree: flat engine has %d roots, %d phase bounds", len(fl.roots), len(fl.phase1))
	case n == 0 || n > flatMaxNodes || leaves == 0 || leaves > flatMaxNodes:
		return nil, fmt.Errorf("mltree: flat engine shape %d nodes, %d leaves exceeds capacity", n, leaves)
	case nc >= flatMaxCols || len(fl.cutOff) != nc+1:
		return nil, fmt.Errorf("mltree: flat engine has %d code columns, %d cut offsets", nc, len(fl.cutOff))
	}
	for ti, root := range fl.roots {
		if root < 0 || int(root) >= n {
			return nil, fmt.Errorf("mltree: flat tree %d root %d of %d nodes", ti, root, n)
		}
		if p := fl.phase1[ti]; p < 0 || int(p) > n {
			return nil, fmt.Errorf("mltree: flat tree %d phase bound %d of %d nodes", ti, p, n)
		}
	}
	// The quantizer reads input column src[c] of every row unchecked. One
	// column per feature, so with the cut-run check below no feature holds
	// more than flatMaxCuts cuts.
	for c, col := range fl.src {
		if col < 0 || int(col) >= fl.NumFeatures || (c > 0 && col <= fl.src[c-1]) {
			return nil, fmt.Errorf("mltree: code column %d reads input column %d of %d (not strictly ascending)", c, col, fl.NumFeatures)
		}
	}
	if fl.cutOff[0] != 0 || int(fl.cutOff[nc]) != len(fl.cuts) {
		return nil, fmt.Errorf("mltree: flat cut offsets do not span the cut block")
	}
	for c := 0; c < nc; c++ {
		lo, hi := fl.cutOff[c], fl.cutOff[c+1]
		if hi <= lo || hi-lo > flatMaxCuts {
			return nil, fmt.Errorf("mltree: code column %d has cut range [%d,%d)", c, lo, hi)
		}
		for i := lo + 1; i < hi; i++ {
			if thresholdKey(fl.cuts[i-1]) >= thresholdKey(fl.cuts[i]) {
				return nil, fmt.Errorf("mltree: code column %d cuts not strictly ascending at %d", c, i)
			}
		}
	}
	if !trusted {
		for i, w := range fl.nodes {
			if w>>63 == 1 {
				leafIdx := int32(uint32(w>>20) & 0xFFFFF)
				if int(leafIdx) >= leaves || w != leafWord(leafIdx, int32(i)) {
					return nil, fmt.Errorf("mltree: flat node %d is not a valid self-looping leaf", i)
				}
				continue
			}
			col := int(w >> 48)
			fc := int(uint32(w) & 0xFFFFF)
			if col >= nc {
				return nil, fmt.Errorf("mltree: flat node %d splits on code column %d of %d", i, col, nc)
			}
			// Strictly forward sibling pairs are how the compiler emits
			// nodes, and they double as the termination proof: every
			// descent step increases the slot until a self-looping leaf.
			if fc <= i || fc+1 >= n {
				return nil, fmt.Errorf("mltree: flat node %d children at %d break forward order (%d nodes)", i, fc, n)
			}
		}
	}
	fl.finishDerived()
	return fl, nil
}

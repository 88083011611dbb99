package mltree

import (
	"encoding/binary"
	"math"
	"testing"
	"unsafe"

	"repro/internal/binenc"
	"repro/internal/randx"
)

// codecModels compiles one model of each kind, with an evaluation batch.
func codecModels(t testing.TB) (ft, ff, fg *Flat, eval []float64, n, f int) {
	t.Helper()
	n, f = 300, 10
	x, y, ev := flatTestData(131, n, f)
	poisonRows(ev, f)
	tr, err := FitTree(x, n, f, y, nil, 2, TreeConfig(), randx.New(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	fcfg := DefaultForestConfig()
	fcfg.NumTrees = 6
	fo, err := FitForest(x, n, f, y, nil, 2, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := DefaultGBTConfig()
	gcfg.Rounds = 12
	g, err := FitGBT(x, n, f, y, nil, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	must := mustFlat(t)
	return must(tr.Flatten()), must(fo.Flatten()), must(g.Flatten()), ev, n, f
}

// exactGridTree fits a tree on the codec test data rounded to a 1/16
// grid: each feature then has far fewer than DefaultMaxBins distinct
// values, so every value keeps its own bin and the tree's cuts sit at the
// midpoints an exact sort-based search would choose — a threshold layout
// unlike the quantile-binned tree's.
func exactGridTree(t testing.TB) *Flat {
	t.Helper()
	n, f := 300, 10
	x, y, _ := flatTestData(131, n, f)
	for i, v := range x {
		x[i] = math.Round(v*16) / 16
	}
	tr, err := FitTree(x, n, f, y, nil, 2, TreeConfig(), randx.New(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	return mustFlat(t)(tr.Flatten())
}

func TestFlatCodecRoundTrip(t *testing.T) {
	ft, ff, fg, eval, n, _ := codecModels(t)
	fe := exactGridTree(t)
	for _, trusted := range []bool{false, true} {
		for _, tc := range []struct {
			kind string
			fl   *Flat
			post Post
		}{
			{"tree-hist", ft, PostNone},
			{"tree-exact", fe, PostNone},
			{"forest", ff, PostMean},
			{"gbt", fg, PostLogistic},
		} {
			name := tc.kind
			if trusted {
				name += "-trusted"
			}
			t.Run(name, func(t *testing.T) {
				r := binenc.NewReader(tc.fl.AppendBinary(nil))
				got, err := DecodeFlat(r, trusted)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
				if got.Post() != tc.post || got.NumTrees() != tc.fl.NumTrees() || got.FlatBytes() != tc.fl.FlatBytes() {
					t.Fatalf("decoded post %d, %d trees, %d bytes; compiled %d, %d, %d",
						got.Post(), got.NumTrees(), got.FlatBytes(), tc.post, tc.fl.NumTrees(), tc.fl.FlatBytes())
				}
				want := make([]float64, n)
				have := make([]float64, n)
				tc.fl.ScoreBatch(eval, n, want)
				got.ScoreBatch(eval, n, have)
				for i := range want {
					if want[i] != have[i] {
						t.Fatalf("row %d: decoded %v, original %v", i, have[i], want[i])
					}
				}
			})
		}
	}
}

// TestFlatCodecZeroCopy: on a little-endian host, decoding from a heap
// buffer (8-aligned, like an mmap base) aliases the node and payload
// sections instead of copying them.
func TestFlatCodecZeroCopy(t *testing.T) {
	if !binenc.NativeLittle() {
		t.Skip("zero-copy aliasing requires a little-endian host")
	}
	_, ff, _, _, _, _ := codecModels(t)
	buf := ff.AppendBinary(nil)
	got, err := DecodeFlat(binenc.NewReader(buf), false)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
	hi := lo + uintptr(len(buf))
	inside := func(p unsafe.Pointer) bool { return uintptr(p) >= lo && uintptr(p) < hi }
	if !inside(unsafe.Pointer(unsafe.SliceData(got.nodes))) {
		t.Error("nodes were copied, want aliased")
	}
	if !inside(unsafe.Pointer(unsafe.SliceData(got.leafVals))) {
		t.Error("leafVals were copied, want aliased")
	}
	if !inside(unsafe.Pointer(unsafe.SliceData(got.cuts))) {
		t.Error("cuts were copied, want aliased")
	}
}

// TestFlatCodecRejectsCorruption: truncations and targeted field
// corruptions must produce an error from the untrusted decode path —
// never a panic, and never a structure the unchecked kernels could walk
// out of bounds.
func TestFlatCodecRejectsCorruption(t *testing.T) {
	_, ff, _, _, _, _ := codecModels(t)
	buf := ff.AppendBinary(nil)
	decode := func(b []byte) error {
		r := binenc.NewReader(b)
		_, err := DecodeFlat(r, false)
		if err == nil {
			err = r.Close()
		}
		return err
	}
	for _, cut := range []int{0, 1, 4, 8, len(buf) / 2, len(buf) - 1} {
		if err := decode(buf[:cut]); err == nil {
			t.Errorf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	// Every single-byte corruption must either fail or decode into a
	// structure whose scoring stays in bounds (checked by the -race /
	// bounds-checked walk below on the ones that decode).
	stride := len(buf)/97 + 1
	for off := 0; off < len(buf); off += stride {
		mut := append([]byte(nil), buf...)
		mut[off] ^= 0x40
		r := binenc.NewReader(mut)
		got, err := DecodeFlat(r, false)
		if err != nil || r.Close() != nil {
			continue
		}
		x := make([]float64, 64*got.NumFeatures)
		out := make([]float64, 64)
		got.ScoreBatch(x, 64, out)
	}
	// The quantizer reads input column src[c] unchecked, on the trusted
	// path too: a code column reading past the row, or columns out of
	// order, must be rejected at either trust level.
	if len(ff.src) < 2 {
		t.Fatalf("fixture forest has %d code columns, want at least 2", len(ff.src))
	}
	srcOff := int(uintptr(unsafe.Pointer(unsafe.SliceData(mustDecode(t, buf).src))) -
		uintptr(unsafe.Pointer(unsafe.SliceData(buf))))
	last := srcOff + 4*(len(ff.src)-1)
	for name, mutate := range map[string]func(b []byte){
		"src past the row":  func(b []byte) { binary.LittleEndian.PutUint32(b[last:], uint32(ff.NumFeatures)) },
		"src out of order":  func(b []byte) { binary.LittleEndian.PutUint32(b[srcOff:], uint32(ff.src[len(ff.src)-1]+1)) },
		"src negative":      func(b []byte) { binary.LittleEndian.PutUint32(b[srcOff:], ^uint32(0)) },
		"node column range": func(b []byte) { corruptRootColumn(t, b, ff) },
	} {
		bad := append([]byte(nil), buf...)
		mutate(bad)
		for _, trusted := range []bool{false, true} {
			if name == "node column range" && trusted {
				continue // per-node words are the untrusted path's check
			}
			if _, err := DecodeFlat(binenc.NewReader(bad), trusted); err == nil {
				t.Errorf("%s (trusted=%v) decoded cleanly", name, trusted)
			}
		}
	}
}

// mustDecode decodes an engine that must be valid.
func mustDecode(t *testing.T, b []byte) *Flat {
	t.Helper()
	fl, err := DecodeFlat(binenc.NewReader(b), false)
	if err != nil {
		t.Fatal(err)
	}
	return fl
}

// corruptRootColumn points the first tree's root node at a code column
// one past the last.
func corruptRootColumn(t *testing.T, b []byte, ff *Flat) {
	t.Helper()
	got := mustDecode(t, b)
	root := got.roots[0]
	if got.nodes[root]>>63 == 1 {
		t.Fatal("fixture forest's first tree is a lone leaf")
	}
	off := int(uintptr(unsafe.Pointer(&got.nodes[root])) - uintptr(unsafe.Pointer(unsafe.SliceData(b))))
	w := got.nodes[root]&^(0x7FFF<<48) | uint64(len(ff.src))<<48
	binary.LittleEndian.PutUint64(b[off:], w)
}

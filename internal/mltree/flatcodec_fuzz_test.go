package mltree

import (
	"math"
	"testing"

	"repro/internal/binenc"
)

// fuzzEval builds a small adversarial evaluation batch: NaNs, infinities,
// signed zeros, denormals — everything a mutated artifact's descent must
// survive once it passes validation.
func fuzzEval(n, f int) []float64 {
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, math.Inf(1), math.Inf(-1),
		math.NaN(), math.SmallestNonzeroFloat64, -math.MaxFloat64, 1e300}
	x := make([]float64, n*f)
	for i := range x {
		x[i] = pool[i%len(pool)]
	}
	return x
}

// fuzzFlatDecode is the shared fuzz body: decoding arbitrary bytes on the
// untrusted path must never panic, anything that decodes cleanly must
// quantize every row to the reference lower-bound code over its column's
// decoded cuts, and must score a batch without stepping outside its
// arrays (the run is bounds- and race-checked under `go test -fuzz`). So
// the search runs on every cut run the decoder accepts. 19 rows cover a
// full 8-lane group and a partial one.
func fuzzFlatDecode(t *testing.T, data []byte) {
	r := binenc.NewReader(data)
	m, err := DecodeFlat(r, false)
	if err != nil || r.Close() != nil {
		return
	}
	const n = 19
	x := fuzzEval(n, m.NumFeatures)
	codes := m.Codes(n, colsFill(m, x))
	for c, j := range m.src {
		cuts := m.cuts[m.cutOff[c]:m.cutOff[c+1]]
		for i := 0; i < n; i++ {
			v := x[i*m.NumFeatures+int(j)]
			if got, want := codes[c*flatRowBlock+i], refCode(cuts, v); got != want {
				t.Fatalf("code column %d row %d: code %d, reference %d (v=%v, cuts %v)", c, i, got, want, v, cuts)
			}
		}
	}
	out := make([]float64, n)
	m.ScoreCodes(codes, n, out)
}

func FuzzDecodeFlatTree(f *testing.F) {
	ft, _, _, _, _, _ := codecModels(f)
	enc := ft.AppendBinary(nil)
	f.Add(enc)
	f.Add(enc[:len(enc)-3])
	f.Fuzz(fuzzFlatDecode)
}

func FuzzDecodeFlatForest(f *testing.F) {
	_, ff, _, _, _, _ := codecModels(f)
	enc := ff.AppendBinary(nil)
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{})
	// Several code columns, one of them near the cut capacity, so
	// mutations reach the src map's and the cut runs' validation.
	_, full := fullCutForest(f)
	f.Add(full.AppendBinary(nil))
	f.Fuzz(fuzzFlatDecode)
}

func FuzzDecodeFlatGBT(f *testing.F) {
	_, _, fg, _, _, _ := codecModels(f)
	f.Add(fg.AppendBinary(nil))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(fuzzFlatDecode)
}

// TestFlatCodecMisaligned: the artifact bytes at a misaligned address
// (where zero-copy aliasing is impossible) decode through the copy
// fallback, bit-identical to the aligned decode.
func TestFlatCodecMisaligned(t *testing.T) {
	_, ff, _, eval, n, _ := codecModels(t)
	enc := ff.AppendBinary(nil)
	shifted := make([]byte, len(enc)+1)
	copy(shifted[1:], enc)
	got, err := DecodeFlat(binenc.NewReader(shifted[1:]), false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	have := make([]float64, n)
	scoreRows(ff, eval, n, want)
	scoreRows(got, eval, n, have)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("row %d: misaligned decode scores %v, aligned %v", i, have[i], want[i])
		}
	}
}

package mltree

import (
	"math"
	"testing"
)

// refCode is the quantizer's specification: the lower-bound code is the
// count of cut keys strictly below the row key (flat.go's lemma).
func refCode(cuts []float64, v float64) uint8 {
	k := rowKey(math.Float64bits(v))
	c := 0
	for _, t := range cuts {
		if thresholdKey(t) < k {
			c++
		}
	}
	return uint8(c)
}

// quantFeatures builds cut sets for the one search at every depth: a
// single cut, a few cuts of both signs, near-duplicate cuts differing only
// far down the mantissa, a zero-straddling set spanning many exponents,
// a dense run, and a column at the flat layout's capacity (flatMaxCuts),
// whose NaN and above-range rows take code 255.
func quantFeatures() [][]float64 {
	single := []float64{0.25}
	small := []float64{-3, -1, -0.125, 0, 1e-9, 2, 7, 512}
	subcap := make([]float64, 20)
	for i := range subcap {
		subcap[i] = 1 + float64(i)*math.Ldexp(1, -40)
	}
	straddle := make([]float64, 0, 200)
	for i := 0; i < 100; i++ {
		straddle = append(straddle, -math.Exp(float64(100-i)/7))
	}
	for i := 0; i < 100; i++ {
		straddle = append(straddle, math.Exp(float64(i)/9))
	}
	dense := make([]float64, 0, 120)
	for i := 0; i < 120; i++ {
		dense = append(dense, 0.5+float64(i)/64)
	}
	full := make([]float64, flatMaxCuts)
	for i := range full {
		full[i] = math.Sinh(float64(i-flatMaxCuts/2) / 10)
	}
	return [][]float64{single, small, subcap, nil /* unused feature */, straddle, dense, full}
}

// quantPool is the adversarial value set for one feature: signed zeros,
// denormals, infinities, both NaN signs, extreme magnitudes, every cut
// value itself, and each cut's immediate float neighbors.
func quantPool(cuts []float64) []float64 {
	pool := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xFFF8000000000001),
		1, -1, 0.5, -0.5, 1e-300, -1e-300, 1e300, -1e300,
	}
	for _, c := range cuts {
		pool = append(pool, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
	}
	return pool
}

// TestQuantizeDifferential checks the quantize search, its 4-row
// interleave and its tail loop, against the reference lower-bound count
// on every value of each column's adversarial pool, at row counts that
// leave every tail length (rows%4 = 0..3).
func TestQuantizeDifferential(t *testing.T) {
	features := quantFeatures()
	f := len(features)
	fl := &Flat{NumFeatures: f, cutOff: []int32{0}}
	for j, cs := range features {
		if len(cs) > 0 {
			fl.src = append(fl.src, int32(j))
			fl.cuts = append(fl.cuts, cs...)
			fl.cutOff = append(fl.cutOff, int32(len(fl.cuts)))
		}
	}
	fl.finishDerived()

	pools := make([][]float64, f)
	maxPool := 0
	for j, cs := range features {
		pools[j] = quantPool(cs)
		maxPool = max(maxPool, len(pools[j]))
	}
	var top int // rows the capacity column codes 255
	for _, rows := range []int{flatRowBlock, 37, 8, 7, 6, 5, 1} {
		// Blocks step through every pool; 97 is coprime to each pool's
		// length, so the scramble visits every value.
		for base := 0; base < maxPool; base += rows {
			x := make([]float64, rows*f)
			for r := 0; r < rows; r++ {
				for j := 0; j < f; j++ {
					pool := pools[j]
					x[r*f+j] = pool[((base+r)*97+j*13)%len(pool)]
				}
			}
			// quantize reads rows holding only the engine's columns.
			var xc []float64
			for r := 0; r < rows; r++ {
				for _, j := range fl.src {
					xc = append(xc, x[r*f+int(j)])
				}
			}
			got := make([]uint8, len(fl.src)*flatRowBlock)
			fl.quantize(xc, rows, got)
			for c, j := range fl.src {
				cs := features[j]
				for r := 0; r < rows; r++ {
					v := x[r*f+int(j)]
					want := refCode(cs, v)
					if at := c*flatRowBlock + r; got[at] != want {
						t.Fatalf("rows=%d feature %d row %d: code %d, reference %d (v=%v)", rows, j, r, got[at], want, v)
					}
					if len(cs) == flatMaxCuts && want == flatMaxCuts {
						top++
					}
				}
			}
		}
	}
	if top == 0 {
		t.Fatal("no row coded 255 in the capacity column")
	}
}

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

// quantFeatures builds cut sets that exercise every quantize arm: the
// SIMD/small binary search (few cuts), the two-level radix (many cuts,
// including a zero-straddling set whose exponent axis spans both signs),
// and the radix's sub-table-cap fallback (near-duplicate cuts differing
// only far down the mantissa).
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
	return [][]float64{single, small, subcap, nil /* unused feature */, straddle, dense}
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

// TestQuantizeDifferential checks every quantize code path — the AVX-512
// compare-count kernel (where the CPU has it), the radix table, and the
// binary searches including odd-row tails — against the reference
// lower-bound count, and checks the SIMD and scalar paths against each
// other byte for byte on the same tile.
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

	radix := 0
	for _, q := range fl.fq {
		if q.radix {
			radix++
		}
	}
	if radix < 2 {
		t.Fatalf("only %d radix-mapped features; the test needs the radix arm engaged", radix)
	}

	pools := make([][]float64, f)
	for j, cs := range features {
		pools[j] = quantPool(cs)
	}
	saved := binnedHaveAVX512
	defer func() { binnedHaveAVX512 = saved }()

	for _, rows := range []int{flatRowBlock, 37, 8, 5, 1} {
		x := make([]float64, rows*f)
		for r := 0; r < rows; r++ {
			for j := 0; j < f; j++ {
				pool := pools[j]
				x[r*f+j] = pool[(r*7+j*13)%len(pool)]
			}
		}
		// quantize reads rows holding only the engine's columns.
		var xc []float64
		for r := 0; r < rows; r++ {
			for _, j := range fl.src {
				xc = append(xc, x[r*f+int(j)])
			}
		}
		binnedHaveAVX512 = saved
		simd := make([]uint8, len(fl.src)*flatRowBlock)
		fl.quantize(xc, rows, simd)
		binnedHaveAVX512 = false
		scalar := make([]uint8, len(fl.src)*flatRowBlock)
		fl.quantize(xc, rows, scalar)
		for c, j := range fl.src {
			cs := features[j]
			for r := 0; r < rows; r++ {
				want := refCode(cs, x[r*f+int(j)])
				at := c*flatRowBlock + r
				if simd[at] != want {
					t.Fatalf("rows=%d feature %d row %d: default path code %d, reference %d (v=%v)",
						rows, j, r, simd[at], want, x[r*f+int(j)])
				}
				if scalar[at] != want {
					t.Fatalf("rows=%d feature %d row %d: scalar path code %d, reference %d (v=%v)",
						rows, j, r, scalar[at], want, x[r*f+int(j)])
				}
			}
		}
	}
}

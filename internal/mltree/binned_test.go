package mltree

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/randx"
)

// randMatrix builds a seeded n x f matrix with the first five features
// informative for the returned labels (sum > 0), the shape the exact-path
// tests use.
func randMatrix(n, f int, seed uint64) ([]float64, []int) {
	rng := randx.New(seed, seed+1)
	x := make([]float64, n*f)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < f; j++ {
			v := rng.Norm(0, 1)
			x[i*f+j] = v
			if j < 5 {
				s += v
			}
		}
		if s > 0 {
			y[i] = 1
		}
	}
	return x, y
}

func TestBinConstantColumn(t *testing.T) {
	n, f := 50, 3
	x := make([]float64, n*f)
	for i := 0; i < n; i++ {
		x[i*f+0] = 7.5 // constant
		x[i*f+1] = float64(i % 4)
		x[i*f+2] = float64(i)
	}
	bn, err := Bin(x, n, f, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bn.Bins[0] != 1 || len(bn.Thresholds[0]) != 0 {
		t.Fatalf("constant column got %d bins, %d thresholds", bn.Bins[0], len(bn.Thresholds[0]))
	}
	for i := 0; i < n; i++ {
		if bn.Codes[i*f+0] != 0 {
			t.Fatalf("constant column row %d coded %d", i, bn.Codes[i*f+0])
		}
	}
	// A tree over constant + categorical-ish columns still fits (the
	// constant one is simply never split on).
	y := make([]int, n)
	for i := range y {
		if i%4 >= 2 {
			y[i] = 1
		}
	}
	tree, err := FitTreeBinned(bn, y, nil, 2, Config{Rule: AllFeatures}, randx.New(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		probs := tree.PredictProba(x[i*f : (i+1)*f])
		if got := probs[1] > 0.5; got != (y[i] == 1) {
			t.Fatalf("row %d misclassified on a perfectly separable column", i)
		}
	}
}

func TestBinFewDistinctKeepsExactThresholds(t *testing.T) {
	// <= maxBins distinct values: every distinct value keeps its own bin
	// and thresholds sit at midpoints, exactly as the sort-based search
	// would cut.
	n, f := 40, 1
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i % 5) // distinct values 0..4
	}
	bn, err := Bin(x, n, f, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bn.Bins[0] != 5 {
		t.Fatalf("got %d bins for 5 distinct values", bn.Bins[0])
	}
	want := []float64{0.5, 1.5, 2.5, 3.5}
	for i, thr := range bn.Thresholds[0] {
		if thr != want[i] {
			t.Fatalf("threshold %d = %v, want %v", i, thr, want[i])
		}
	}
	for i := 0; i < n; i++ {
		if int(bn.Codes[i]) != i%5 {
			t.Fatalf("row %d coded %d, want %d", i, bn.Codes[i], i%5)
		}
	}
}

// TestBinCodesRespectThresholds is the quantization contract the hist
// trees rely on: code <= b if and only if x <= Thresholds[b], for every
// training cell — so partitioning by code and predicting by float
// threshold agree.
func TestBinCodesRespectThresholds(t *testing.T) {
	n, f := 1000, 4
	x, _ := randMatrix(n, f, 11)
	bn, err := Bin(x, n, f, nil, 64) // force real quantization
	if err != nil {
		t.Fatal(err)
	}
	for feat := 0; feat < f; feat++ {
		if bn.Bins[feat] > 64 {
			t.Fatalf("feature %d has %d bins, budget 64", feat, bn.Bins[feat])
		}
		thr := bn.Thresholds[feat]
		for i := 1; i < len(thr); i++ {
			if thr[i] <= thr[i-1] {
				t.Fatalf("feature %d thresholds not ascending at %d", feat, i)
			}
		}
		for i := 0; i < n; i++ {
			v := x[i*f+feat]
			code := int(bn.Codes[i*f+feat])
			if code >= bn.Bins[feat] {
				t.Fatalf("code %d out of %d bins", code, bn.Bins[feat])
			}
			for b := range thr {
				left := code <= b
				if left != (v <= thr[b]) {
					t.Fatalf("feature %d row %d: code %d vs threshold %d (%v) disagree for value %v",
						feat, i, code, b, thr[b], v)
				}
			}
		}
	}
}

func TestBinRejectsNaNAndBadShapes(t *testing.T) {
	if _, err := Bin([]float64{1, 2, 3}, 2, 2, nil, 0); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := Bin([]float64{1, math.NaN(), 3, 4}, 2, 2, nil, 0); err == nil {
		t.Fatal("NaN accepted (binning requires the NaN-free contract)")
	}
	if _, err := Bin([]float64{1, 2, 3, 4}, 2, 2, []float64{1}, 0); err == nil {
		t.Fatal("weight length mismatch accepted")
	}
}

func TestBinWeightedQuantilesFollowMass(t *testing.T) {
	// With weight concentrated on large values, the cut points must crowd
	// toward them: more than half the thresholds should sit above the
	// unweighted median.
	n := 1000
	x := make([]float64, n)
	w := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		if i >= n/2 {
			w[i] = 9
		} else {
			w[i] = 1
		}
	}
	bn, err := Bin(x, n, 1, w, 16)
	if err != nil {
		t.Fatal(err)
	}
	above := 0
	for _, thr := range bn.Thresholds[0] {
		if thr > float64(n)/2 {
			above++
		}
	}
	if above <= len(bn.Thresholds[0])/2 {
		t.Fatalf("only %d of %d cut points follow the weighted mass", above, len(bn.Thresholds[0]))
	}
}

func TestBinWorkersBitIdentical(t *testing.T) {
	n, f := 500, 12
	x, _ := randMatrix(n, f, 21)
	seq, err := BinWorkers(x, n, f, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5} {
		par, err := BinWorkers(x, n, f, nil, 0, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(seq.Codes, par.Codes) {
			t.Fatalf("codes differ at %d workers", workers)
		}
		for feat := 0; feat < f; feat++ {
			if seq.Bins[feat] != par.Bins[feat] {
				t.Fatalf("bin counts differ at %d workers", workers)
			}
			for i, thr := range seq.Thresholds[feat] {
				if par.Thresholds[feat][i] != thr {
					t.Fatalf("thresholds differ at %d workers", workers)
				}
			}
		}
	}
}

func TestFeatureSamplerMatchesRNG(t *testing.T) {
	// The allocation-free sampler must mirror SampleWithoutReplacement
	// draw-for-draw so a hist fit is reproducible against its spec.
	s := newFeatureSampler(37)
	a, b := randx.New(5, 6), randx.New(5, 6)
	for round := 0; round < 50; round++ {
		k := round%12 + 1
		want := a.SampleWithoutReplacement(37, k)
		got := s.sample(b, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: sample[%d] = %d, want %d", round, i, got[i], want[i])
			}
		}
	}
}

func TestFitForestBinnedDeterministicAcrossWorkers(t *testing.T) {
	n, f := 600, 20
	x, y := randMatrix(n, f, 31)
	w := BalancedWeights(y, 2)
	bn, err := Bin(x, n, f, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultForestConfig()
	cfg.NumTrees = 6
	cfg.Workers = 1
	seq, err := FitForestBinned(bn, y, w, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		cfg.Workers = workers
		par, err := FitForestBinned(bn, y, w, 2, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("hist forest differs at %d workers", workers)
		}
	}
}

func TestFitGBTBinnedDeterministicAndAccurate(t *testing.T) {
	n, f := 1200, 25
	x, y := randMatrix(n, f, 51)
	w := BalancedWeights(y, 2)
	cfg := DefaultGBTConfig()
	cfg.Rounds = 20
	g1, err := FitGBT(x, n, f, y, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := FitGBT(x, n, f, y, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	right := 0
	for i := 0; i < n; i++ {
		r1, r2 := g1.Raw(x[i*f:(i+1)*f]), g2.Raw(x[i*f:(i+1)*f])
		if r1 != r2 {
			t.Fatalf("row %d: hist GBT not deterministic: %v vs %v", i, r1, r2)
		}
		if (r1 > 0) == (y[i] == 1) {
			right++
		}
	}
	if accuracy := float64(right) / float64(n); accuracy < 0.9 {
		t.Fatalf("hist GBT accuracy %.3f on separable data", accuracy)
	}
}

// TestRegressionBinnedLeafAssignment: the leaf indices recorded during
// growth must agree with float-threshold traversal over the training rows
// — the contract that lets boosting skip per-row traversals entirely.
func TestRegressionBinnedLeafAssignment(t *testing.T) {
	n, f := 800, 10
	x, _ := randMatrix(n, f, 61)
	targets := make([]float64, n)
	for i := 0; i < n; i++ {
		targets[i] = 3*x[i*f] - 2*x[i*f+1]
	}
	bn, err := Bin(x, n, f, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	leafOf := make([]int32, n)
	cfg := RegressionConfig{MaxDepth: 5, MinSamplesLeaf: 7, Rule: SqrtFeatures}
	tree, err := fitRegressionTreeBinned(bn, targets, nil, cfg, randx.New(9, 10), leafOf)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, tree.LeafCount())
	for i := 0; i < n; i++ {
		if got := tree.LeafID(x[i*f : (i+1)*f]); got != int(leafOf[i]) {
			t.Fatalf("row %d: traversal leaf %d, recorded leaf %d", i, got, leafOf[i])
		}
		counts[leafOf[i]]++
	}
	for l, cnt := range counts {
		if cnt < cfg.MinSamplesLeaf {
			t.Fatalf("leaf %d holds %d rows, below MinSamplesLeaf %d", l, cnt, cfg.MinSamplesLeaf)
		}
	}
}

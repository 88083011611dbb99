package mltree

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

// xorData builds a noiseless 2-feature XOR-ish dataset a single axis-aligned
// tree can solve with depth 2.
func xorData(n int, rng *randx.RNG) ([]float64, []int) {
	x := make([]float64, n*2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		x[i*2] = a
		x[i*2+1] = b
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return x, y
}

func TestFitTreeSolvesXOR(t *testing.T) {
	rng := randx.New(1, 2)
	x, y := xorData(400, rng)
	tree, err := FitTree(x, 400, 2, y, nil, 2, Config{Rule: AllFeatures, MinWeightFraction: 0.001}, rng)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 400; i++ {
		p := tree.PredictProba(x[i*2 : i*2+2])
		pred := 0
		if p[1] > p[0] {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 400; acc < 0.95 {
		t.Fatalf("XOR accuracy = %v, want >= 0.95", acc)
	}
}

func TestFitTreeValidation(t *testing.T) {
	rng := randx.New(1, 1)
	cases := []struct {
		x    []float64
		n, f int
		y    []int
		w    []float64
		nc   int
	}{
		{[]float64{1, 2}, 2, 2, []int{0, 1}, nil, 2},              // wrong x size
		{[]float64{1, 2}, 2, 1, []int{0}, nil, 2},                 // wrong y len
		{[]float64{1, 2}, 2, 1, []int{0, 5}, nil, 2},              // label out of range
		{[]float64{1, 2}, 2, 1, []int{0, 1}, []float64{1}, 2},     // wrong w len
		{[]float64{1, 2}, 2, 1, []int{0, 1}, []float64{-1, 1}, 2}, // negative weight
		{[]float64{1, 2}, 2, 1, []int{0, 1}, []float64{0, 0}, 2},  // zero weight
		{[]float64{1, 2}, 2, 1, []int{0, 1}, nil, 1},              // 1 class
		{nil, 0, 0, nil, nil, 2},                                  // empty
	}
	for i, c := range cases {
		if _, err := FitTree(c.x, c.n, c.f, c.y, c.w, c.nc, TreeConfig(), rng); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestFloatFitsRejectNaNWeights: binning a float matrix before the fit
// must not let a NaN weight through any float-matrix entry point.
func TestFloatFitsRejectNaNWeights(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []int{0, 1, 0, 1}
	w := []float64{1, math.NaN(), 1, 1}
	if _, err := FitTree(x, 4, 1, y, w, 2, TreeConfig(), randx.New(1, 1)); err == nil {
		t.Error("FitTree accepted a NaN weight")
	}
	cfg := DefaultForestConfig()
	cfg.Bootstrap = false
	if _, err := FitForest(x, 4, 1, y, w, 2, cfg); err == nil {
		t.Error("FitForest accepted a NaN weight")
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	rng := randx.New(3, 3)
	x := []float64{1, 2, 3, 4}
	y := []int{1, 1, 1, 1}
	tree, err := FitTree(x, 4, 1, y, nil, 2, TreeConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NodeCount() != 1 {
		t.Fatalf("pure data should give a single leaf, got %d nodes", tree.NodeCount())
	}
	p := tree.PredictProba([]float64{2})
	if p[1] != 1 || p[0] != 0 {
		t.Fatalf("leaf probs = %v", p)
	}
}

func TestMinWeightFractionStops(t *testing.T) {
	rng := randx.New(4, 4)
	x, y := xorData(400, rng)
	shallow, err := FitTree(x, 400, 2, y, nil, 2, Config{Rule: AllFeatures, MinWeightFraction: 0.6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := FitTree(x, 400, 2, y, nil, 2, Config{Rule: AllFeatures, MinWeightFraction: 0.0001}, randx.New(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if shallow.NodeCount() >= deep.NodeCount() {
		t.Fatalf("weight stopping had no effect: %d vs %d nodes", shallow.NodeCount(), deep.NodeCount())
	}
	if shallow.Depth() > 2 {
		t.Fatalf("60%% weight stop should stop early, depth = %d", shallow.Depth())
	}
}

func TestMaxDepth(t *testing.T) {
	rng := randx.New(5, 5)
	x, y := xorData(300, rng)
	tree, err := FitTree(x, 300, 2, y, nil, 2, Config{Rule: AllFeatures, MinWeightFraction: 0.0001, MaxDepth: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 1 {
		t.Fatalf("depth = %d, want <= 1", tree.Depth())
	}
}

func TestBalancedWeights(t *testing.T) {
	y := []int{0, 0, 0, 1}
	w := BalancedWeights(y, 2)
	// class 0: 4/(2*3)=2/3 each; class 1: 4/(2*1)=2.
	if math.Abs(w[0]-2.0/3) > 1e-12 || math.Abs(w[3]-2) > 1e-12 {
		t.Fatalf("weights = %v", w)
	}
	// Total weight per class equalised.
	if math.Abs(w[0]*3-w[3]) > 1e-12 {
		t.Fatal("class weight totals differ")
	}
}

func TestBalancedWeightsFocusMinority(t *testing.T) {
	// With balanced weights, a depth-1 tree must split to isolate the rare
	// class even though it is only 5% of instances.
	rng := randx.New(6, 6)
	n := 400
	x := make([]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if i < 20 {
			y[i] = 1
			x[i] = rng.Uniform(0.8, 1.0)
		} else {
			x[i] = rng.Uniform(0, 0.79)
		}
	}
	w := BalancedWeights(y, 2)
	tree, err := FitTree(x, n, 1, y, w, 2, Config{Rule: AllFeatures, MinWeightFraction: 0.05}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := tree.PredictProba([]float64{0.9})
	if p[1] < 0.9 {
		t.Fatalf("minority class probability = %v, want ~1", p[1])
	}
}

func TestGini(t *testing.T) {
	if g := gini([]float64{1, 1}, 2); math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("gini(50/50) = %v, want 0.5", g)
	}
	if g := gini([]float64{2, 0}, 2); g != 0 {
		t.Fatalf("gini(pure) = %v, want 0", g)
	}
	if g := gini([]float64{0, 0}, 0); g != 0 {
		t.Fatalf("gini(empty) = %v, want 0", g)
	}
}

func TestImportancesSumToOne(t *testing.T) {
	rng := randx.New(7, 7)
	x, y := xorData(300, rng)
	tree, err := FitTree(x, 300, 2, y, nil, 2, Config{Rule: AllFeatures, MinWeightFraction: 0.001}, rng)
	if err != nil {
		t.Fatal(err)
	}
	imp := tree.Importances()
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Fatal("negative importance")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum to %v", sum)
	}
}

func TestImportancesFindInformativeFeature(t *testing.T) {
	// Feature 1 is pure noise; feature 0 defines the label.
	rng := randx.New(8, 8)
	n := 500
	x := make([]float64, n*2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x[i*2] = rng.Float64()
		x[i*2+1] = rng.Float64()
		if x[i*2] > 0.5 {
			y[i] = 1
		}
	}
	tree, err := FitTree(x, n, 2, y, nil, 2, Config{Rule: AllFeatures, MinWeightFraction: 0.01}, rng)
	if err != nil {
		t.Fatal(err)
	}
	imp := tree.Importances()
	if imp[0] < 0.9 {
		t.Fatalf("informative feature importance = %v, want ~1", imp[0])
	}
	if tree.RootFeature() != 0 {
		t.Fatalf("root feature = %d, want 0", tree.RootFeature())
	}
}

func TestForestBeatsSingleTreeOnNoisyData(t *testing.T) {
	rng := randx.New(9, 9)
	n := 600
	f := 6
	x := make([]float64, n*f)
	y := make([]int, n)
	// Label depends on a noisy linear combination: single trees overfit.
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < f; j++ {
			v := rng.Norm(0, 1)
			x[i*f+j] = v
			if j < 3 {
				s += v
			}
		}
		if s+rng.Norm(0, 1) > 0 {
			y[i] = 1
		}
	}
	// Holdout split.
	trainN := 400
	forest, err := FitForest(x[:trainN*f], trainN, f, y[:trainN], nil, 2,
		ForestConfig{NumTrees: 40, Tree: ForestTreeConfig(), Bootstrap: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FitTree(x[:trainN*f], trainN, f, y[:trainN], nil, 2,
		Config{Rule: AllFeatures, MinWeightFraction: 0.0002}, randx.New(10, 10))
	if err != nil {
		t.Fatal(err)
	}
	acc := func(pred func([]float64) []float64) float64 {
		ok := 0
		for i := trainN; i < n; i++ {
			p := pred(x[i*f : (i+1)*f])
			c := 0
			if p[1] > p[0] {
				c = 1
			}
			if c == y[i] {
				ok++
			}
		}
		return float64(ok) / float64(n-trainN)
	}
	fAcc := acc(forest.PredictProba)
	tAcc := acc(tree.PredictProba)
	if fAcc < tAcc-0.02 {
		t.Fatalf("forest (%.3f) should not lose clearly to tree (%.3f)", fAcc, tAcc)
	}
	if fAcc < 0.7 {
		t.Fatalf("forest accuracy = %.3f too low", fAcc)
	}
}

func TestForestDeterministicGivenSeed(t *testing.T) {
	rng := randx.New(11, 11)
	x, y := xorData(200, rng)
	cfg := ForestConfig{NumTrees: 8, Tree: ForestTreeConfig(), Bootstrap: true, Seed: 5, Workers: 4}
	a, err := FitForest(x, 200, 2, y, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitForest(x, 200, 2, y, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.8}
	pa, pb := a.PredictProba(probe), b.PredictProba(probe)
	if pa[0] != pb[0] || pa[1] != pb[1] {
		t.Fatalf("forest not deterministic: %v vs %v", pa, pb)
	}
}

func TestForestConfigValidation(t *testing.T) {
	if _, err := FitForest(nil, 0, 0, nil, nil, 2, ForestConfig{NumTrees: 0}); err == nil {
		t.Fatal("expected error for zero trees")
	}
}

func TestForestImportancesNormalised(t *testing.T) {
	rng := randx.New(12, 12)
	x, y := xorData(300, rng)
	forest, err := FitForest(x, 300, 2, y, nil, 2,
		ForestConfig{NumTrees: 10, Tree: ForestTreeConfig(), Bootstrap: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range forest.Importances() {
		if v < 0 {
			t.Fatal("negative importance")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("forest importances sum to %v", sum)
	}
}

// Property: predicted probabilities are a distribution.
func TestPredictProbaDistributionProperty(t *testing.T) {
	rng := randx.New(13, 13)
	x, y := xorData(200, rng)
	tree, err := FitTree(x, 200, 2, y, nil, 2, TreeConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		p := tree.PredictProba([]float64{a, b})
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: leaf probabilities on training data match empirical class
// frequencies when the tree is grown to purity on separable data.
func TestSeparableDataPerfectFit(t *testing.T) {
	rng := randx.New(14, 14)
	n := 100
	x := make([]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i)
		if i >= 50 {
			y[i] = 1
		}
	}
	tree, err := FitTree(x, n, 1, y, nil, 2, Config{Rule: AllFeatures, MinWeightFraction: 0.001}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := tree.PredictProba(x[i : i+1])
		if p[y[i]] != 1 {
			t.Fatalf("separable data mispredicted at %d: %v", i, p)
		}
	}
}

func TestThreeClasses(t *testing.T) {
	rng := randx.New(15, 15)
	n := 300
	x := make([]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = rng.Float64() * 3
		y[i] = int(x[i])
		if y[i] > 2 {
			y[i] = 2
		}
	}
	tree, err := FitTree(x, n, 1, y, nil, 3, Config{Rule: AllFeatures, MinWeightFraction: 0.01}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := tree.PredictProba([]float64{0.5})
	if p[0] < 0.9 {
		t.Fatalf("class 0 region predicted %v", p)
	}
	p = tree.PredictProba([]float64{2.5})
	if p[2] < 0.9 {
		t.Fatalf("class 2 region predicted %v", p)
	}
}

func TestSortPairsByVal(t *testing.T) {
	rng := randx.New(21, 21)
	for round := 0; round < 50; round++ {
		m := rng.IntInclusive(1, 200)
		vals := make([]float64, m)
		idx := make([]int32, m)
		for i := range vals {
			vals[i] = float64(rng.IntN(20)) // many ties
			idx[i] = int32(i)
		}
		sortPairsByVal(vals, idx)
		for i := 1; i < m; i++ {
			if vals[i] < vals[i-1] {
				t.Fatal("values not sorted")
			}
			if vals[i] == vals[i-1] && idx[i] < idx[i-1] {
				t.Fatal("ties not broken by index")
			}
		}
	}
}

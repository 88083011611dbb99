package mltree

import (
	"math"
	"strings"
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
	tree, err := FitTreeBinned(mustBin(t, x, 400, 2), y, nil, Config{Rule: AllFeatures, MinWeightFraction: 0.001}, rng)
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
	}{
		{[]float64{1, 2}, 2, 2, []int{0, 1}, nil},              // wrong x size
		{[]float64{1, 2}, 2, 1, []int{0}, nil},                 // wrong y len
		{[]float64{1, 2}, 2, 1, []int{0, 5}, nil},              // label out of range
		{[]float64{1, 2}, 2, 1, []int{0, 1}, []float64{1}},     // wrong w len
		{[]float64{1, 2}, 2, 1, []int{0, 1}, []float64{-1, 1}}, // negative weight
		{[]float64{1, 2}, 2, 1, []int{0, 1}, []float64{0, 0}},  // zero weight
		{[]float64{1, 2}, 2, 1, []int{0, -1}, nil},             // negative label
		{nil, 0, 0, nil, nil},                                  // empty
	}
	for i, c := range cases {
		bn, err := Bin(c.x, c.n, c.f, 1)
		if err == nil {
			_, err = FitTreeBinned(bn, c.y, c.w, TreeConfig(), rng)
		}
		if err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// TestForestRejectsNegativeWeightAnyDraw: a forest validates the caller's
// weights before bootstrapping, so a negative weight fails the fit even
// when the draw misses its row (which scales it to -0).
func TestForestRejectsNegativeWeightAnyDraw(t *testing.T) {
	rng := randx.New(9, 9)
	x, y := xorData(40, rng)
	w := make([]float64, 40)
	for i := range w {
		w[i] = 1
	}
	w[17] = -5
	bn, err := Bin(x, 40, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 39; seed++ {
		cfg := DefaultForestConfig()
		cfg.NumTrees, cfg.Seed, cfg.Bootstrap = 1, seed, true
		if _, err := FitForestBinned(bn, y, w, cfg); err == nil || !strings.Contains(err.Error(), "invalid weight") {
			t.Errorf("seed %d: FitForestBinned err = %v, want invalid weight", seed, err)
		}
	}
}

// TestFloatFitsRejectNaNWeights: no fit entry point lets a NaN weight
// through, and boosting checks the caller's weights before subsampling,
// NaN and negative alike.
func TestFloatFitsRejectNaNWeights(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []int{0, 1, 0, 1}
	w := []float64{1, math.NaN(), 1, 1}
	bn := mustBin(t, x, 4, 1)
	if _, err := FitTreeBinned(bn, y, w, TreeConfig(), randx.New(1, 1)); err == nil {
		t.Error("FitTreeBinned accepted a NaN weight")
	}
	cfg := DefaultForestConfig()
	cfg.Bootstrap = false
	if _, err := FitForestBinned(bn, y, w, cfg); err == nil {
		t.Error("FitForestBinned accepted a NaN weight")
	}
	for _, c := range []struct {
		name string
		w    []float64
	}{{"NaN", w}, {"negative", []float64{1, -5, 1, 1}}} {
		if _, err := FitGBTBinned(bn, y, c.w, DefaultGBTConfig()); err == nil || !strings.Contains(err.Error(), "invalid weight") {
			t.Errorf("FitGBTBinned with a %s weight: err = %v, want invalid weight", c.name, err)
		}
	}
}

// giniRootSplit is the reference the grower's criterion is held to: a
// brute-force root split scored by weighted Gini decrease from per-class
// sums, over every boundary of every feature of bn. A boundary whose bin
// holds no weight repeats its predecessor's partition sums and is
// skipped. It returns the best (feature, cut) and the best and runner-up
// decreases (runner-up -Inf when there is one candidate).
func giniRootSplit(bn *Binned, y []int, w []float64) (feat, cut int, best, second float64) {
	gini := func(c0, c1 float64) float64 {
		t := c0 + c1
		return 1 - (c0/t)*(c0/t) - (c1/t)*(c1/t)
	}
	var c [2]float64
	for i, l := range y {
		c[l] += w[i]
	}
	total := c[0] + c[1]
	parent := gini(c[0], c[1])
	feat, best, second = -1, math.Inf(-1), math.Inf(-1)
	for j := 0; j < bn.F; j++ {
		for b := 0; b < bn.Bins[j]-1; b++ {
			var l [2]float64
			binW := 0.0
			for i, lab := range y {
				code := int(bn.Codes[i*bn.F+j])
				if code <= b {
					l[lab] += w[i]
				}
				if code == b {
					binW += w[i]
				}
			}
			wl := l[0] + l[1]
			wr := total - wl
			if binW == 0 || wl == 0 || wr == 0 {
				continue
			}
			dec := parent - wl/total*gini(l[0], l[1]) - wr/total*gini(c[0]-l[0], c[1]-l[1])
			switch {
			case dec > best:
				second, best, feat, cut = best, dec, j, b
			case dec > second:
				second = dec
			}
		}
	}
	return feat, cut, best, second
}

// TestRootSplitMatchesGini holds the variance-reduction grower to the
// weighted Gini criterion: wherever the brute-force Gini root split beats
// its runner-up by more than 1e-9 relative, the grower's root splits on
// the same feature at the same cut.
func TestRootSplitMatchesGini(t *testing.T) {
	rng := randx.New(31, 37)
	checked := 0
	for trial := 0; trial < 400; trial++ {
		n, f := rng.IntInclusive(4, 40), rng.IntInclusive(1, 5)
		bn := &Binned{Codes: make([]uint8, n*f), N: n, F: f, Bins: make([]int, f), Thresholds: make([][]float64, f)}
		for j := range bn.Bins {
			bn.Bins[j] = rng.IntInclusive(1, 8)
			for b := 0; b < bn.Bins[j]-1; b++ {
				bn.Thresholds[j] = append(bn.Thresholds[j], float64(b)+0.5)
			}
		}
		y := make([]int, n)
		w := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < f; j++ {
				bn.Codes[i*f+j] = uint8(rng.IntN(bn.Bins[j]))
			}
			y[i] = rng.IntN(2)
			w[i] = float64(rng.IntN(4))
		}
		w[0]++ // a positive total weight
		feat, cut, best, second := giniRootSplit(bn, y, w)
		if feat < 0 || best <= 1e-9 || best-second <= 1e-9*best {
			continue // no split, or a near-tie either criterion may break either way
		}
		tree, err := FitTreeBinned(bn, y, w, Config{Rule: AllFeatures, MaxDepth: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		root := tree.nodes[0]
		if int(root.feature) != feat || root.threshold != bn.Thresholds[feat][cut] {
			t.Fatalf("trial %d: grower's root splits feature %d at %v, Gini reference feature %d at cut %d (decrease %v, runner-up %v)",
				trial, root.feature, root.threshold, feat, cut, best, second)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d of 400 trials had a clear Gini winner", checked)
	}
}

func TestPureNodeBecomesLeaf(t *testing.T) {
	rng := randx.New(3, 3)
	x := []float64{1, 2, 3, 4}
	y := []int{1, 1, 1, 1}
	tree, err := FitTreeBinned(mustBin(t, x, 4, 1), y, nil, TreeConfig(), rng)
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
	shallow, err := FitTreeBinned(mustBin(t, x, 400, 2), y, nil, Config{Rule: AllFeatures, MinWeightFraction: 0.6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := FitTreeBinned(mustBin(t, x, 400, 2), y, nil, Config{Rule: AllFeatures, MinWeightFraction: 0.0001}, randx.New(4, 4))
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
	tree, err := FitTreeBinned(mustBin(t, x, 300, 2), y, nil, Config{Rule: AllFeatures, MinWeightFraction: 0.0001, MaxDepth: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 1 {
		t.Fatalf("depth = %d, want <= 1", tree.Depth())
	}
}

func TestBalancedWeights(t *testing.T) {
	y := []int{0, 0, 0, 1}
	w := BalancedWeights(y)
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
	w := BalancedWeights(y)
	tree, err := FitTreeBinned(mustBin(t, x, n, 1), y, w, Config{Rule: AllFeatures, MinWeightFraction: 0.05}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := tree.PredictProba([]float64{0.9})
	if p[1] < 0.9 {
		t.Fatalf("minority class probability = %v, want ~1", p[1])
	}
}

func TestImportancesSumToOne(t *testing.T) {
	rng := randx.New(7, 7)
	x, y := xorData(300, rng)
	tree, err := FitTreeBinned(mustBin(t, x, 300, 2), y, nil, Config{Rule: AllFeatures, MinWeightFraction: 0.001}, rng)
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
	tree, err := FitTreeBinned(mustBin(t, x, n, 2), y, nil, Config{Rule: AllFeatures, MinWeightFraction: 0.01}, rng)
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
	forest, err := FitForestBinned(mustBin(t, x[:trainN*f], trainN, f), y[:trainN], nil,
		ForestConfig{NumTrees: 40, Tree: ForestTreeConfig(), Bootstrap: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FitTreeBinned(mustBin(t, x[:trainN*f], trainN, f), y[:trainN], nil,
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
	a, err := FitForestBinned(mustBin(t, x, 200, 2), y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitForestBinned(mustBin(t, x, 200, 2), y, nil, cfg)
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
	if _, err := FitForestBinned(mustBin(t, []float64{1, 2}, 2, 1), []int{0, 1}, nil, ForestConfig{NumTrees: 0}); err == nil {
		t.Fatal("expected error for zero trees")
	}
}

func TestForestImportancesNormalised(t *testing.T) {
	rng := randx.New(12, 12)
	x, y := xorData(300, rng)
	forest, err := FitForestBinned(mustBin(t, x, 300, 2), y, nil,
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
	tree, err := FitTreeBinned(mustBin(t, x, 200, 2), y, nil, TreeConfig(), rng)
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
	tree, err := FitTreeBinned(mustBin(t, x, n, 1), y, nil, Config{Rule: AllFeatures, MinWeightFraction: 0.001}, rng)
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

// TestTiedSplitsGoToLowerFeature: two copies of the one informative
// column tie at every boundary, so whatever order the random feature
// sampling scans them in, every split lands on the lower copy.
func TestTiedSplitsGoToLowerFeature(t *testing.T) {
	rng := randx.New(41, 43)
	n := 300
	x := make([]float64, n*3)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()
		x[i*3], x[i*3+1], x[i*3+2] = rng.Float64(), v, v
		if v > 0.4 {
			y[i] = 1
		}
	}
	bn := mustBin(t, x, n, 3)
	for seed := uint64(1); seed <= 20; seed++ {
		tree, err := FitTreeBinned(bn, y, nil, Config{Rule: AllFeatures, MinWeightFraction: 0.01}, randx.New(seed, 1))
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range tree.nodes {
			if nd.feature == 2 {
				t.Fatalf("seed %d: a split took the higher copy of a tied column", seed)
			}
		}
		if tree.RootFeature() != 1 {
			t.Fatalf("seed %d: root splits on feature %d, want 1", seed, tree.RootFeature())
		}
	}
}

package mltree

import (
	"math"
	"testing"

	"repro/internal/randx"
)

func TestRegressionTreeFitsStep(t *testing.T) {
	n := 200
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i)
		if i >= 100 {
			y[i] = 5
		}
	}
	tree, err := growTree(mustBin(t, x, n, 1), y, nil, Config{MaxDepth: 2, MinSamplesLeaf: 5}, randx.New(1, 1), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{10}); math.Abs(got-0) > 1e-9 {
		t.Fatalf("left region = %v, want 0", got)
	}
	if got := tree.Predict([]float64{150}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("right region = %v, want 5", got)
	}
}

func TestRegressionTreeRespectsMinSamplesLeaf(t *testing.T) {
	n := 20
	x := make([]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i)
		y[i] = float64(i % 2)
	}
	tree, err := growTree(mustBin(t, x, n, 1), y, nil, Config{MaxDepth: 10, MinSamplesLeaf: 8}, randx.New(2, 2), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.LeafCount() > 2 {
		t.Fatalf("leaves = %d, want <= 2 with MinSamplesLeaf 8", tree.LeafCount())
	}
}

func TestRegressionTreeValidation(t *testing.T) {
	rng := randx.New(1, 1)
	if _, err := Bin(nil, 0, 0, 1); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := growTree(mustBin(t, []float64{1}, 1, 1), []float64{1, 2}, nil, Config{}, rng, false, nil); err == nil {
		t.Fatal("target length mismatch accepted")
	}
}

func TestRegressionTreeLeafIDsDense(t *testing.T) {
	rng := randx.New(3, 3)
	n := 200
	x := make([]float64, n*2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i*2] = rng.Float64()
		x[i*2+1] = rng.Float64()
		y[i] = x[i*2]*3 + x[i*2+1]
	}
	tree, err := growTree(mustBin(t, x, n, 2), y, nil, Config{MaxDepth: 4, MinSamplesLeaf: 5}, rng, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		id := tree.LeafID(x[i*2 : (i+1)*2])
		if id < 0 || id >= tree.LeafCount() {
			t.Fatalf("leaf id %d out of [0,%d)", id, tree.LeafCount())
		}
		seen[id] = true
	}
	if len(seen) != tree.LeafCount() {
		t.Fatalf("only %d of %d leaves reached by training data", len(seen), tree.LeafCount())
	}
}

func TestSetLeafValues(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{0, 0, 1, 1}
	tree, err := growTree(mustBin(t, x, 4, 1), y, nil, Config{MaxDepth: 1, MinSamplesLeaf: 1}, randx.New(4, 4), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, tree.LeafCount())
	for i := range vals {
		vals[i] = 42
	}
	tree.SetLeafValues(vals)
	if tree.Predict([]float64{0}) != 42 {
		t.Fatal("SetLeafValues not applied")
	}
}

func TestGBTSolvesXOR(t *testing.T) {
	rng := randx.New(5, 5)
	x, y := xorData(600, rng)
	cfg := DefaultGBTConfig()
	cfg.Rounds = 80
	g, err := FitGBTBinned(mustBin(t, x, 600, 2), y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < 600; i++ {
		p := g.PredictProba(x[i*2 : i*2+2])
		pred := 0
		if p[1] > 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / 600; acc < 0.93 {
		t.Fatalf("GBT XOR accuracy = %v", acc)
	}
}

func TestGBTProbabilitiesValid(t *testing.T) {
	rng := randx.New(6, 6)
	x, y := xorData(200, rng)
	g, err := FitGBTBinned(mustBin(t, x, 200, 2), y, nil, DefaultGBTConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		p := g.PredictProba(x[i*2 : i*2+2])
		if p[0] < 0 || p[0] > 1 || p[1] < 0 || p[1] > 1 {
			t.Fatalf("probabilities out of range: %v", p)
		}
		if math.Abs(p[0]+p[1]-1) > 1e-9 {
			t.Fatalf("probabilities do not sum to 1: %v", p)
		}
	}
	if g.Rounds() != DefaultGBTConfig().Rounds {
		t.Fatalf("rounds = %d", g.Rounds())
	}
}

func TestGBTValidation(t *testing.T) {
	if _, err := Bin(nil, 0, 0, 1); err == nil {
		t.Fatal("empty input accepted")
	}
	x := []float64{1, 2}
	if _, err := FitGBTBinned(mustBin(t, x, 2, 1), []int{0, 0}, nil, DefaultGBTConfig()); err == nil {
		t.Fatal("single-class labels accepted")
	}
	if _, err := FitGBTBinned(mustBin(t, x, 2, 1), []int{0, 2}, nil, DefaultGBTConfig()); err == nil {
		t.Fatal("non-binary label accepted")
	}
	bad := DefaultGBTConfig()
	bad.Rounds = 0
	if _, err := FitGBTBinned(mustBin(t, x, 2, 1), []int{0, 1}, nil, bad); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

func TestGBTDeterministic(t *testing.T) {
	rng := randx.New(7, 7)
	x, y := xorData(150, rng)
	cfg := DefaultGBTConfig()
	cfg.Rounds = 20
	a, err := FitGBTBinned(mustBin(t, x, 150, 2), y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FitGBTBinned(mustBin(t, x, 150, 2), y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.8}
	if a.Raw(probe) != b.Raw(probe) {
		t.Fatal("GBT not deterministic for fixed seed")
	}
}

func TestGBTImprovesWithRounds(t *testing.T) {
	rng := randx.New(8, 8)
	n := 400
	x := make([]float64, n*3)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < 3; j++ {
			v := rng.Norm(0, 1)
			x[i*3+j] = v
			s += v
		}
		if s > 0 {
			y[i] = 1
		}
	}
	logloss := func(rounds int) float64 {
		cfg := DefaultGBTConfig()
		cfg.Rounds = rounds
		cfg.SubsampleFraction = 1
		g, err := FitGBTBinned(mustBin(t, x, n, 3), y, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ll := 0.0
		for i := 0; i < n; i++ {
			p := g.PredictProba(x[i*3 : (i+1)*3])[1]
			p = math.Min(math.Max(p, 1e-9), 1-1e-9)
			if y[i] == 1 {
				ll -= math.Log(p)
			} else {
				ll -= math.Log(1 - p)
			}
		}
		return ll / float64(n)
	}
	few, many := logloss(3), logloss(50)
	if many >= few {
		t.Fatalf("training loss did not improve with rounds: %v -> %v", few, many)
	}
}

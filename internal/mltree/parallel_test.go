package mltree

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// TestForestParallelMatchesSequential checks the pool contract at the
// forest layer: each tree's RNG is keyed by its index, so the fitted
// ensemble is identical at any worker count.
func TestForestParallelMatchesSequential(t *testing.T) {
	rng := randx.New(7, 8)
	n, f := 300, 12
	x := make([]float64, n*f)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < f; j++ {
			v := rng.Norm(0, 1)
			x[i*f+j] = v
			if j < 3 {
				s += v
			}
		}
		if s > 0 {
			y[i] = 1
		}
	}
	w := BalancedWeights(y)

	fit := func(workers int) *Forest {
		cfg := DefaultForestConfig()
		cfg.NumTrees = 9
		cfg.Seed = 42
		cfg.Workers = workers
		forest, err := FitForestBinned(mustBin(t, x, n, f), y, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return forest
	}
	seq := fit(1)
	for _, workers := range []int{2, 4} {
		par := fit(workers)
		for i := 0; i < n; i++ {
			ps, pp := seq.PredictProba(x[i*f:(i+1)*f]), par.PredictProba(x[i*f:(i+1)*f])
			for c := range ps {
				if ps[c] != pp[c] {
					t.Fatalf("workers=%d: prediction for row %d differs: %v vs %v", workers, i, ps, pp)
				}
			}
		}
		is, ip := seq.Importances(), par.Importances()
		for j := range is {
			if math.Abs(is[j]-ip[j]) > 0 {
				t.Fatalf("workers=%d: importance %d differs: %v vs %v", workers, j, is[j], ip[j])
			}
		}
	}
}

// Package experiments reproduces every table and figure of the paper's
// study on synthetic data: the descriptive analyses of Secs. II-III
// (Figs. 1-8, Table II), the forecasting evaluation of Sec. V (Figs. 9-14,
// the Sec. V-A temporal-stability test), and the feature-importance maps
// (Figs. 15-16). Each runner returns a structured result with a Format
// method that prints the same rows/series the paper reports.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/score"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/timegrid"
)

// Scale fixes the experiment size. The paper runs tens of thousands of
// sectors over the full Table III grid; reproduction scales thin the sector
// count and the t sample while keeping every h and w of interest
// (DESIGN.md §6).
type Scale struct {
	// Sectors and Seed configure the synthetic network.
	Sectors int
	Seed    uint64
	// TCount is how many forecast days are sampled evenly from [52, 87].
	TCount int
	// Hs and Ws are the horizon/window grids.
	Hs, Ws []int
	// ForestTrees, TrainDays and RandomRepeats tune the models/evaluation.
	ForestTrees   int
	TrainDays     int
	RandomRepeats int
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int
	// CacheBytes bounds the shared feature-matrix cache
	// (0 = forecast.DefaultCacheBytes, negative disables).
	CacheBytes int64
}

// TinyScale is for smoke tests and -short runs (seconds of CPU). The
// network is too small for the paper's shape results; use SmallScale for
// anything that asserts on figures.
func TinyScale() Scale {
	return Scale{
		Sectors: 200, Seed: 1, TCount: 2,
		Hs: []int{1, 5}, Ws: []int{1, 7},
		ForestTrees: 4, TrainDays: 3, RandomRepeats: 2,
	}
}

// SmallScale is for tests and quick benches (minutes of CPU).
func SmallScale() Scale {
	return Scale{
		Sectors: 250, Seed: 1, TCount: 3,
		Hs: []int{1, 5, 7, 14, 26}, Ws: []int{1, 7, 14},
		ForestTrees: 10, TrainDays: 3, RandomRepeats: 5,
	}
}

// DefaultScale is the standard reproduction scale used by cmd/hotbench.
func DefaultScale() Scale {
	_, hs, ws := forecast.PaperGrid()
	return Scale{
		Sectors: 900, Seed: 1, TCount: 6,
		Hs: hs, Ws: ws,
		ForestTrees: 24, TrainDays: 4, RandomRepeats: 10,
		Workers: 12,
	}
}

// FullScale approaches the paper's protocol (hours of CPU): every t in
// [52, 87] and a larger network.
func FullScale() Scale {
	s := DefaultScale()
	s.Sectors = 2500
	s.TCount = 36
	return s
}

// Ts returns the sampled forecast days, evenly spread over the paper's
// t range [52, 87].
func (s Scale) Ts() []int {
	ts, _, _ := forecast.PaperGrid()
	if s.TCount >= len(ts) {
		return ts
	}
	if s.TCount < 1 {
		return ts[:1]
	}
	out := make([]int, s.TCount)
	for i := 0; i < s.TCount; i++ {
		pos := i * (len(ts) - 1) / max(s.TCount-1, 1)
		out[i] = ts[pos]
	}
	return out
}

// Env is the prepared experimental environment shared by all runners: the
// filtered dataset, its score set, and a forecasting context.
type Env struct {
	Scale   Scale
	Dataset *simnet.Dataset
	Set     *score.Set
	Ctx     *forecast.Context
	// Discarded is the number of sectors removed by the missing-data
	// filter.
	Discarded int

	hourlyLabels, weeklyLabels func() *tensor.Matrix
}

// HourlyLabels returns the hourly hot-spot labels Yh = Labels(Sh) (Figs.
// 6-8), derived on first use and shared by every figure.
func (e *Env) HourlyLabels() *tensor.Matrix { return e.hourlyLabels() }

// WeeklyLabels returns the weekly hot-spot labels Yw = Labels(Sw) (Fig.
// 6), derived on first use.
func (e *Env) WeeklyLabels() *tensor.Matrix { return e.weeklyLabels() }

// Prepare generates the synthetic network, applies the paper's sector
// filter, computes the score chain and builds the forecasting context.
func Prepare(s Scale) (*Env, error) {
	cfg := simnet.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Sectors = s.Sectors
	cfg.Weeks = timegrid.PaperWeeks
	ds, err := simnet.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating network: %w", err)
	}
	return FromDataset(ds, s)
}

// FromDataset prepares the environment from an existing dataset through
// core.FromDataset, which restricts ds in place to the filtered sectors.
func FromDataset(ds *simnet.Dataset, s Scale) (*Env, error) {
	p, err := core.FromDataset(ds, core.Config{
		Seed:        s.Seed,
		TrainDays:   s.TrainDays,
		ForestTrees: s.ForestTrees,
		CacheBytes:  s.CacheBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: building context: %w", err)
	}
	// Experiment grids always hold many points, so the sweep pool is the
	// parallelism lever; serialise each forest fit to keep the total
	// goroutine count at Workers (and make Workers=1 truly sequential).
	p.Ctx.FitWorkers = 1
	set := p.Scores
	return &Env{Scale: s, Dataset: p.Dataset, Set: set, Ctx: p.Ctx, Discarded: p.Discarded,
		hourlyLabels: sync.OnceValue(func() *tensor.Matrix { return set.Weighting.Labels(set.Sh) }),
		weeklyLabels: sync.OnceValue(func() *tensor.Matrix { return set.Weighting.Labels(set.Sw) }),
	}, nil
}

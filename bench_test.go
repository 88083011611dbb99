// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation. One testing.B benchmark per table /
// figure; each prints the same rows or series the paper reports (run with
// -benchtime=1x to execute each experiment once):
//
//	go test -bench=. -benchmem -benchtime=1x
//
// Shapes to compare against the paper (EXPERIMENTS.md records a full run):
//
//	Fig 6  hours/day mode at 16h; days/week mode at 1
//	Fig 7  consecutive-hour peaks at 16/40/64; day peaks at 7x and 7x+6
//	Tab 2  full-week and workweek patterns at the top
//	Fig 8  same-tower correlation spike; distance-independent twins
//	Fig 9  classifiers > Average > Persist/Trend; Persist peaks h=7,14
//	Fig 10 RF models beat Average by ~10-20% on hot spots
//	Fig 11 classifiers >> baselines for h <= 15 on emerging hot spots
//	Fig 12 delta vs Average collapses for h >= 19
//	Fig 13 lift plateaus at w = 7
//	Fig 15 scores dominate importance; calendar negligible
package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/mltree"
	"repro/internal/randx"
	"repro/internal/simnet"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

// env prepares one shared small-scale environment for all benches.
func env(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		scale := experiments.SmallScale()
		scale.Sectors = 400
		benchEnv, benchEnvErr = experiments.Prepare(scale)
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

func BenchmarkFig01KPIExamples(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig01KPIExamples(e)
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig02ScoreAndLabel(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig02ScoreAndLabel(e)
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig03LabelRaster(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig03LabelRaster(e)
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig04ScoreHistogram(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig04ScoreHistogram(e)
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig05Imputation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig05Imputation(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig06HotSpotHistograms(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig06HotSpotHistograms(e)
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig07ConsecutiveRuns(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig07ConsecutiveRuns(e)
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkTab02WeeklyPatterns(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Tab02WeeklyPatterns(e)
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig08SpatialCorrelation(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Fig08SpatialCorrelation(e)
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkSecVATemporalStability(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunStabilityExperiment(e, forecast.BeHot)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// hot-spot horizon results feed both Fig 9 and Fig 10; run once per bench.
func BenchmarkFig09HotspotLift(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHorizonExperiment(e, forecast.BeHot)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig10HotspotDelta(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHorizonExperiment(e, forecast.BeHot)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\nmean delta vs Average: Tree %+.0f%% RF-R %+.0f%% RF-F1 %+.0f%% RF-F2 %+.0f%% (paper: Tree +6%%, RF-F1 +14%%)",
				res.MeanDelta("Tree", nil), res.MeanDelta("RF-R", nil),
				res.MeanDelta("RF-F1", nil), res.MeanDelta("RF-F2", nil))
		}
	}
}

func BenchmarkFig11BecomeLift(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHorizonExperiment(e, forecast.BecomeHot)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig12BecomeDelta(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunHorizonExperiment(e, forecast.BecomeHot)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			short := func(h int) bool { return h <= 15 }
			long := func(h int) bool { return h >= 19 }
			b.Logf("\nbecome delta vs Average: short horizons %+.0f%%, long horizons %+.0f%% (paper: up to +153%% short, ~0%% for h>=19)",
				res.MeanDelta("RF-F1", short), res.MeanDelta("RF-F1", long))
		}
	}
}

func BenchmarkFig13HotspotPastWindow(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWindowExperiment(e, forecast.BeHot)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig14BecomePastWindow(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWindowExperiment(e, forecast.BecomeHot)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig15FeatureImportance(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunImportanceExperiment(e, forecast.BeHot)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

func BenchmarkFig16BecomeImportance(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunImportanceExperiment(e, forecast.BecomeHot)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md §7 calls out.

// BenchmarkAblationBalancedWeights compares balanced vs unbalanced sample
// weights for the single-tree model (DESIGN.md §7).
func BenchmarkAblationBalancedWeights(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationBalancedWeights(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkAblationSpatial tests the paper's spatially unconstrained
// training (Fig. 8C conclusion) against a city-local model (DESIGN.md §7).
func BenchmarkAblationSpatial(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAblationSpatial(e)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkPRCurves reports the precision-recall operating points behind
// the average-precision measure (Sec. IV-B).
func BenchmarkPRCurves(b *testing.B) {
	e := env(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunPRCurves(e, forecast.BeHot)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.Format())
		}
	}
}

// BenchmarkAblationExtractors compares the cost of the three feature
// representations on identical windows.
func BenchmarkAblationExtractors(b *testing.B) {
	e := env(b)
	prevModel := e.Ctx.ModelCacheBytes
	e.Ctx.ModelCacheBytes = -1 // measure the full fit each iteration, not a cache hit
	defer func() { e.Ctx.ModelCacheBytes = prevModel }()
	for _, m := range []forecast.Model{forecast.NewRFR(), forecast.NewRFF1(), forecast.NewRFF2()} {
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Forecast(e.Ctx, forecast.BeHot, 60, 5, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtensionGBT runs the gradient-boosted extension model against
// RF-F1 at a short and a long horizon — the paper's conclusion conjectures
// higher-capacity learners help most at long range.
func BenchmarkExtensionGBT(b *testing.B) {
	e := env(b)
	prevModel := e.Ctx.ModelCacheBytes
	e.Ctx.ModelCacheBytes = -1 // measure the full fit each iteration, not a cache hit
	defer func() { e.Ctx.ModelCacheBytes = prevModel }()
	for _, h := range []int{1, 26} {
		for _, m := range []forecast.Model{forecast.NewRFF1(), forecast.NewGBT()} {
			b.Run(fmt.Sprintf("%s/h=%d", m.Name(), h), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					scores, err := m.Forecast(e.Ctx, forecast.BeHot, 60, h, 7)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						labels := e.Set.Yd.Col(60 + h)
						ap := eval.AveragePrecision(scores, labels)
						b.Logf("%s h=%d: AP %.3f (lift %.1f)", m.Name(), h, ap,
							eval.Lift(ap, eval.Prevalence(labels)))
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Parallel sweep engine: the same RF-F1 grid at increasing worker counts.
// Comparing the w=1 line against w=NumCPU demonstrates the engine's
// wall-clock speedup on multicore hardware (the records are bit-identical
// at every worker count; TestSweepParallelMatchesSequential enforces it).

func BenchmarkSweepWorkers(b *testing.B) {
	e := env(b)
	prevFit, prevCache, prevModel := e.Ctx.FitWorkers, e.Ctx.CacheBytes, e.Ctx.ModelCacheBytes
	e.Ctx.FitWorkers = 1       // isolate the sweep pool as the only lever
	e.Ctx.CacheBytes = -1      // uncached: this bench is the pre-cache baseline
	e.Ctx.ModelCacheBytes = -1 // refit per iteration: cached fits would erase the scaling signal
	defer func() {
		e.Ctx.FitWorkers, e.Ctx.CacheBytes, e.Ctx.ModelCacheBytes = prevFit, prevCache, prevModel
	}()
	counts := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := forecast.Sweep(e.Ctx, forecast.SweepConfig{
					Models:        []forecast.Model{forecast.NewRFF1()},
					Target:        forecast.BeHot,
					Ts:            []int{56, 61, 66, 71},
					Hs:            []int{1, 5, 14},
					Ws:            []int{7},
					RandomRepeats: 5,
					Workers:       workers,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepCached measures the feature cache's point: the
// grid below holds 4 horizons per distinct (t, w), so the cached arm
// builds each distinct (end, w) matrix once and serves every other grid
// point from the LRU, while the uncached arm re-extracts per point (the
// BenchmarkSweepWorkers behaviour). Run with -benchmem: the cached arm
// should also allocate substantially less.
func BenchmarkSweepCached(b *testing.B) {
	e := env(b)
	prevFit, prevCache, prevModel := e.Ctx.FitWorkers, e.Ctx.CacheBytes, e.Ctx.ModelCacheBytes
	e.Ctx.FitWorkers = 1
	e.Ctx.ModelCacheBytes = -1 // isolate the feature cache as the only lever
	defer func() {
		e.Ctx.FitWorkers, e.Ctx.CacheBytes, e.Ctx.ModelCacheBytes = prevFit, prevCache, prevModel
	}()
	cfg := forecast.SweepConfig{
		Models:        []forecast.Model{forecast.NewRFF1()},
		Target:        forecast.BeHot,
		Ts:            []int{56, 61, 66, 71},
		Hs:            []int{1, 3, 5, 14}, // 4 points per distinct (t, w)
		Ws:            []int{7},
		RandomRepeats: 5,
		Workers:       runtime.NumCPU(),
	}
	for _, arm := range []struct {
		name  string
		bytes int64
	}{
		{"uncached", -1},
		{"cached", 0}, // forecast.DefaultCacheBytes
	} {
		b.Run(arm.name, func(b *testing.B) {
			e.Ctx.CacheBytes = arm.bytes
			for i := 0; i < b.N; i++ {
				if _, err := forecast.Sweep(e.Ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitOncePredictMany measures the Fit/Predict split's point: the
// serving loop ships one trained artifact and predicts each new day from
// it, where the pre-split API refit the model inside every Forecast call.
// The grid covers 4 predict days per training cutoff — the artifact fitted
// at t=56 (cutoff 51) serves forecast days 61..64, i.e. 4 effective
// horizons from one cutoff — so fit-once should beat fit-per-point by well
// over 2x (one forest fit amortised over 4 predictions).
func BenchmarkFitOncePredictMany(b *testing.B) {
	e := env(b)
	prevFit, prevModel := e.Ctx.FitWorkers, e.Ctx.ModelCacheBytes
	e.Ctx.FitWorkers = 1
	e.Ctx.ModelCacheBytes = -1 // the comparison is explicit Fit/Predict vs refit, not cache hits
	defer func() { e.Ctx.FitWorkers, e.Ctx.ModelCacheBytes = prevFit, prevModel }()
	model := forecast.NewRFF1()
	const h, w = 5, 7
	ts := []int{56, 57, 58, 59} // 4 predict days off the first artifact's cutoff
	b.Run("fit-per-point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, t := range ts {
				if _, err := model.Forecast(e.Ctx, forecast.BeHot, t, h, w); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fit-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr, err := model.Fit(e.Ctx, forecast.BeHot, ts[0], h, w)
			if err != nil {
				b.Fatal(err)
			}
			for _, t := range ts {
				if _, err := tr.Predict(e.Ctx, t, w); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the substrates.

func BenchmarkGenerate(b *testing.B) {
	cfg := simnet.DefaultConfig()
	cfg.Sectors = 200
	cfg.Weeks = 6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := simnet.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Fit benchmarks: one fit per learner on one shared synthetic training
// set, quantized once outside the timer, so every arm times tree growing
// alone. CI runs them with -benchmem and distills a machine-readable
// BENCH_train.json baseline via cmd/benchjson.

var (
	trainBenchOnce sync.Once
	trainBenchX    []float64
	trainBenchBin  *mltree.Binned
	trainBenchErr  error
	trainBenchY    []int
	trainBenchW    []float64
)

const (
	trainBenchN = 4000
	trainBenchF = 100
)

// trainBenchData builds the shared fit-benchmark training set — five
// informative of 100 features at 4000 instances, roughly the
// default-scale sweep's training-block size (TrainDays x sectors) — and
// its quantization.
func trainBenchData(b *testing.B) ([]float64, *mltree.Binned, []int, []float64) {
	trainBenchOnce.Do(func() {
		rng := randx.New(11, 12)
		n, f := trainBenchN, trainBenchF
		trainBenchX = make([]float64, n*f)
		trainBenchY = make([]int, n)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < f; j++ {
				v := rng.Norm(0, 1)
				trainBenchX[i*f+j] = v
				if j < 5 {
					s += v
				}
			}
			if s > 0 {
				trainBenchY[i] = 1
			}
		}
		trainBenchW = mltree.BalancedWeights(trainBenchY)
		trainBenchBin, trainBenchErr = mltree.Bin(trainBenchX, n, f, 1)
	})
	if trainBenchErr != nil {
		b.Fatal(trainBenchErr)
	}
	return trainBenchX, trainBenchBin, trainBenchY, trainBenchW
}

func BenchmarkFitTreeHist(b *testing.B) {
	_, bn, y, w := trainBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := randx.New(uint64(i+1), 7)
		if _, err := mltree.FitTreeBinned(bn, y, w, mltree.TreeConfig(), rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitForestHist(b *testing.B) {
	_, bn, y, w := trainBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := mltree.DefaultForestConfig()
		cfg.Seed = uint64(i + 1)
		if _, err := mltree.FitForestBinned(bn, y, w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitGBTHist(b *testing.B) {
	_, bn, y, w := trainBenchData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := mltree.DefaultGBTConfig()
		cfg.Seed = uint64(i + 1)
		if _, err := mltree.FitGBTBinned(bn, y, w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Batched inference benchmarks: the walked (pointer-chasing, row-at-a-time)
// predict path against the flat SoA batch engine, per learner, scoring the
// shared 4000x100 block — the all-sector matrix shape artifact.Predict
// serves. Both arms reuse preallocated output (and scratch) buffers, so
// steady-state allocs/op is 0 and the delta is pure traversal cost; the
// acceptance bar is a >=3x forecasts/s win for the flat forest and GBT.
// "forecasts/s" counts scored rows (sector scores) per wall second.

var (
	predictBenchOnce   sync.Once
	predictBenchErr    error
	predictBenchTree   *mltree.Tree
	predictBenchForest *mltree.Forest
	predictBenchGBT    *mltree.GBT
)

// predictBenchModels fits one model of each kind on the shared training
// set (the fit is setup cost, not the measurement).
func predictBenchModels(b *testing.B) (*mltree.Tree, *mltree.Forest, *mltree.GBT) {
	_, bn, y, w := trainBenchData(b)
	predictBenchOnce.Do(func() {
		predictBenchTree, predictBenchErr = mltree.FitTreeBinned(
			bn, y, w, mltree.TreeConfig(), randx.New(21, 22))
		if predictBenchErr != nil {
			return
		}
		foCfg := mltree.DefaultForestConfig()
		foCfg.Seed = 23
		predictBenchForest, predictBenchErr = mltree.FitForestBinned(bn, y, w, foCfg)
		if predictBenchErr != nil {
			return
		}
		gbtCfg := mltree.DefaultGBTConfig()
		gbtCfg.Seed = 25
		predictBenchGBT, predictBenchErr = mltree.FitGBTBinned(bn, y, w, gbtCfg)
	})
	if predictBenchErr != nil {
		b.Fatal(predictBenchErr)
	}
	return predictBenchTree, predictBenchForest, predictBenchGBT
}

// benchPredictWalked measures the per-row pointer path: one scratch
// probability buffer, score() per row, as artifact.Predict's fallback
// does.
func benchPredictWalked(b *testing.B, score func(row, probs []float64) float64) {
	x, _, _, _ := trainBenchData(b)
	out := make([]float64, trainBenchN)
	probs := make([]float64, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < trainBenchN; r++ {
			out[r] = score(x[r*trainBenchF:(r+1)*trainBenchF], probs)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(trainBenchN)*float64(b.N)/b.Elapsed().Seconds(), "forecasts/s")
}

// colsRows gathers every bench row's Cols, the rows Codes quantizes,
// and returns them with a fill function that copies them out.
func colsRows(b *testing.B, fl *mltree.Flat) func(r0 int, dst []float64) {
	x, _, _, _ := trainBenchData(b)
	cols := fl.Cols()
	xc := make([]float64, 0, trainBenchN*len(cols))
	for r := 0; r < trainBenchN; r++ {
		for _, c := range cols {
			xc = append(xc, x[r*trainBenchF+int(c)])
		}
	}
	return func(r0 int, dst []float64) { copy(dst, xc[r0*len(cols):]) }
}

// benchPredictFlat measures the flat engine's serving path on a feature
// cache hit: the rows' code tiles are built once with Codes, and each
// iteration descends them with ScoreCodes.
func benchPredictFlat(b *testing.B, fl *mltree.Flat) {
	codes := fl.Codes(trainBenchN, colsRows(b, fl))
	out := make([]float64, trainBenchN)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.ScoreCodes(codes, trainBenchN, out)
	}
	b.StopTimer()
	b.ReportMetric(float64(trainBenchN)*float64(b.N)/b.Elapsed().Seconds(), "forecasts/s")
}

// benchPredictCodes measures what a feature-cache miss adds before
// descent: Codes quantizing every row, already gathered to the engine's
// Cols, into fresh code tiles. The tiles it allocates are expected.
func benchPredictCodes(b *testing.B, fl *mltree.Flat) {
	fill := colsRows(b, fl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl.Codes(trainBenchN, fill)
	}
	b.StopTimer()
	b.ReportMetric(float64(trainBenchN)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkPredictBatchTreeWalked(b *testing.B) {
	tree, _, _ := predictBenchModels(b)
	benchPredictWalked(b, func(row, probs []float64) float64 {
		tree.PredictProbaInto(row, probs)
		return probs[1]
	})
}

func BenchmarkPredictBatchTreeFlat(b *testing.B) {
	tree, _, _ := predictBenchModels(b)
	benchPredictFlat(b, mustFlat(b)(tree.Flatten()))
}

// mustFlat unwraps a Flatten result: mustFlat(b)(tree.Flatten()).
func mustFlat(b *testing.B) func(*mltree.Flat, error) *mltree.Flat {
	return func(fl *mltree.Flat, err error) *mltree.Flat {
		if err != nil {
			b.Fatal(err)
		}
		return fl
	}
}

func BenchmarkPredictBatchForestWalked(b *testing.B) {
	_, forest, _ := predictBenchModels(b)
	benchPredictWalked(b, func(row, probs []float64) float64 {
		forest.PredictProbaInto(row, probs)
		return probs[1]
	})
}

func BenchmarkPredictBatchForestFlat(b *testing.B) {
	_, forest, _ := predictBenchModels(b)
	benchPredictFlat(b, mustFlat(b)(forest.Flatten()))
}

func BenchmarkPredictBatchGBTWalked(b *testing.B) {
	_, _, gbt := predictBenchModels(b)
	benchPredictWalked(b, func(row, probs []float64) float64 {
		gbt.PredictProbaInto(row, probs)
		return probs[1]
	})
}

func BenchmarkPredictBatchGBTFlat(b *testing.B) {
	_, _, gbt := predictBenchModels(b)
	benchPredictFlat(b, mustFlat(b)(gbt.Flatten()))
}

func BenchmarkPredictBatchTreeCodes(b *testing.B) {
	tree, _, _ := predictBenchModels(b)
	benchPredictCodes(b, mustFlat(b)(tree.Flatten()))
}

func BenchmarkPredictBatchForestCodes(b *testing.B) {
	_, forest, _ := predictBenchModels(b)
	benchPredictCodes(b, mustFlat(b)(forest.Flatten()))
}

func BenchmarkPredictBatchGBTCodes(b *testing.B) {
	_, _, gbt := predictBenchModels(b)
	benchPredictCodes(b, mustFlat(b)(gbt.Flatten()))
}

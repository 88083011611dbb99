package forecast

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/eval"
	"repro/internal/featcache"
	"repro/internal/features"
	"repro/internal/mltree"
	"repro/internal/parallel"
	"repro/internal/randx"
)

// PaperGrid returns the Table III parameter values: forecast days t,
// horizons h and past windows w.
func PaperGrid() (ts, hs, ws []int) {
	for t := 52; t <= 87; t++ {
		ts = append(ts, t)
	}
	hs = []int{1, 2, 3, 4, 5, 7, 8, 10, 12, 14, 16, 19, 22, 26, 29}
	ws = []int{1, 2, 3, 5, 7, 10, 14, 21}
	return ts, hs, ws
}

// SweepConfig selects the grid to evaluate.
type SweepConfig struct {
	// Models are evaluated at every grid point.
	Models []Model
	// Target selects the forecast variable.
	Target Target
	// Ts, Hs, Ws are the grid values (subsets of Table III at reproduction
	// scale).
	Ts, Hs, Ws []int
	// RandomRepeats averages this many random rankings to estimate psi(F0)
	// per grid point, stabilising lift denominators (>=1).
	RandomRepeats int
	// Workers bounds the parallel evaluation of grid points
	// (0 = GOMAXPROCS). Each classifier fit may itself parallelise; workers
	// trade memory for speed.
	Workers int
}

// Record is one evaluated grid point for one model.
type Record struct {
	Model     string
	Target    Target
	T, H, W   int
	Psi       float64 // average precision
	PsiRandom float64 // chance-level average precision at this point
	Lift      float64
	Positives int // number of positive labels at evaluation day t+h
}

// Result is a sweep outcome.
type Result struct {
	Records []Record
}

// CSVHeader is the column set of Record.CSVRow, shared by every CSV sink
// (hotbench, hotforecast) so the formats cannot drift apart.
func CSVHeader() []string {
	return []string{"model", "target", "t", "h", "w", "psi", "psi_random", "lift", "positives"}
}

// CSVRow renders the record as one CSV row matching CSVHeader. Floats use
// the shortest round-trip form; NaN (no positives at the point) prints as
// "NaN".
func (r Record) CSVRow() []string {
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{
		r.Model, r.Target.String(),
		strconv.Itoa(r.T), strconv.Itoa(r.H), strconv.Itoa(r.W),
		ff(r.Psi), ff(r.PsiRandom), ff(r.Lift), strconv.Itoa(r.Positives),
	}
}

// CacheBytesMB maps a CLI-style cache budget in MiB — where 0 or negative
// means "disable caching" — to Context.CacheBytes semantics (where 0 means
// the library default and negative disables).
func CacheBytesMB(mb int) int64 {
	if mb <= 0 {
		return -1
	}
	return int64(mb) << 20
}

// Validate rejects configurations that would silently produce wrong or
// meaningless records: no models, an empty grid axis, fewer than one
// psi-random repetition (the lift denominator would be undefined), or
// duplicate grid values (which would double-count points in every
// aggregation).
func (cfg SweepConfig) Validate() error {
	if len(cfg.Models) == 0 {
		return fmt.Errorf("forecast: sweep with no models")
	}
	if len(cfg.Ts) == 0 || len(cfg.Hs) == 0 || len(cfg.Ws) == 0 {
		return fmt.Errorf("forecast: empty sweep grid")
	}
	if cfg.RandomRepeats < 1 {
		return fmt.Errorf("forecast: RandomRepeats = %d, need >= 1 random ranking per grid point for the chance-level psi", cfg.RandomRepeats)
	}
	for _, axis := range []struct {
		name string
		vals []int
	}{{"t", cfg.Ts}, {"h", cfg.Hs}, {"w", cfg.Ws}} {
		seen := make(map[int]bool, len(axis.vals))
		for _, v := range axis.vals {
			if seen[v] {
				return fmt.Errorf("forecast: duplicate %s=%d in sweep grid (would double-count the point in every aggregation)", axis.name, v)
			}
			seen[v] = true
		}
	}
	return nil
}

// gridPoint is one (t, h, w) cell of the sweep grid.
type gridPoint struct{ t, h, w int }

// gridPoints enumerates the grid in deterministic t-major order.
func (cfg SweepConfig) gridPoints() []gridPoint {
	points := make([]gridPoint, 0, len(cfg.Ts)*len(cfg.Hs)*len(cfg.Ws))
	for _, t := range cfg.Ts {
		for _, h := range cfg.Hs {
			for _, w := range cfg.Ws {
				points = append(points, gridPoint{t, h, w})
			}
		}
	}
	return points
}

// SweepStream evaluates every model at every (t, h, w) grid point and
// hands each Record to emit — in the deterministic grid order (t, h, w)
// major, model minor — as soon as its point completes, without buffering
// the whole grid. emit runs on the calling goroutine only; returning an
// error from it stops the sweep. Points whose evaluation day has no
// positive labels yield Psi = NaN and are still emitted (aggregations
// skip NaNs). The record sequence is bit-identical at any worker count
// and with the feature cache on or off.
func SweepStream(c *Context, cfg SweepConfig, emit func(Record) error) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	points := cfg.gridPoints()
	for _, p := range points {
		if err := c.CheckTask(p.t, p.h, p.w); err != nil {
			return fmt.Errorf("forecast: grid point (t=%d,h=%d,w=%d): %w", p.t, p.h, p.w, err)
		}
	}
	warmFeatureCache(c, cfg)

	// Fan the grid out on the shared pool. evalPoint keys every RNG draw by
	// the grid point itself, so the records are identical at any worker
	// count; parallel.Stream delivers them back in input order.
	return parallel.Stream(cfg.Workers, points, func(_ int, p gridPoint) ([]Record, error) {
		return evalPoint(c, cfg, p.t, p.h, p.w)
	}, func(_ int, recs []Record) error {
		for _, rec := range recs {
			if err := emit(rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// Sweep evaluates the grid and collects every record, the buffering
// convenience wrapper over SweepStream for callers that need the whole
// Result (aggregations over t, KS tests between halves).
func Sweep(c *Context, cfg SweepConfig) (*Result, error) {
	res := &Result{}
	if err := SweepStream(c, cfg, func(rec Record) error {
		res.Records = append(res.Records, rec)
		return nil
	}); err != nil {
		return nil, err
	}
	return res, nil
}

// warmFeatureCache compiles the grid's distinct (extractor, cutoff, w)
// training builds — each in the form its fits read, quantized for
// hist-mode fits and a float slab otherwise — and executes them once
// through the shared pool, so grid-point evaluation starts against a hot
// cache instead of racing to build the same matrices. Best-effort: with
// the cache disabled or no extractor models in the sweep it is a no-op,
// and build errors are left for the evaluation to surface in grid order.
func warmFeatureCache(c *Context, cfg SweepConfig) {
	cache := c.FeatureCache()
	if cache == nil {
		return
	}
	extractors := map[string]features.Extractor{}
	var names []string
	for _, m := range cfg.Models {
		fm, ok := m.(featureModel)
		if !ok {
			continue
		}
		ex := fm.featureExtractor()
		if ex == nil {
			continue
		}
		if _, dup := extractors[ex.Name()]; !dup {
			extractors[ex.Name()] = ex
			names = append(names, ex.Name())
		}
	}
	if len(names) == 0 {
		return
	}
	plan := featcache.Compile(featcache.Grid{
		Ts: cfg.Ts, Hs: cfg.Hs, Ws: cfg.Ws,
		TrainDays:  c.TrainDays,
		Extractors: names,
		Binned:     binnedDemand(c, cfg),
	})
	// Warm only into the budget headroom left by earlier sweeps, so a
	// prewarm never evicts matrices that are still hot. (Keys already
	// resident are counted against the headroom too — conservative, but a
	// re-warm of a hot cache has nothing useful to build anyway.)
	budget := cache.MaxBytes()
	if budget > 0 {
		budget -= cache.Stats().Bytes
		if budget <= 0 {
			return
		}
	}
	plan.Warm(cfg.Workers, budget, func(k featcache.Key) int64 {
		return warmBytes(c, extractors[k.Extractor], k)
	}, func(k featcache.Key) error {
		var err error
		if k.Binned {
			_, err = c.binnedTrainingMatrixAt(extractors[k.Extractor], k.End, k.W)
		} else {
			_, err = c.trainingMatrixAt(extractors[k.Extractor], k.End, k.W)
		}
		return err
	})
}

// warmBytes bounds from above the payload of a planned training build: a
// float slab of 8 bytes per cell, or one code byte per cell plus each
// feature's bin count and thresholds (at most DefaultMaxBins-1 float64s).
func warmBytes(c *Context, ex features.Extractor, k featcache.Key) int64 {
	width := int64(ex.Width(c.View, k.W))
	cells := int64(k.Days) * int64(c.Sectors()) * width
	if k.Binned {
		return cells + width*int64(mltree.DefaultMaxBins)*8
	}
	return cells * 8
}

// binnedDemand mirrors the classifier and GBT fit paths' split-algorithm
// resolution per (extractor, w): a quantized training matrix is prewarmed
// exactly when some model in the sweep will consume it in hist form, and a
// float one otherwise. (Under SplitAuto a lone Tree can resolve to hist
// where a forest on the same matrix stays exact; the plan then warms the
// quantized build and the forest builds its float slab on first use.) The
// decision is a pure function of the training-set shape (the same
// SplitWork estimate the fits use), never of data, so warming and fitting
// cannot disagree.
func binnedDemand(c *Context, cfg SweepConfig) map[string][]int {
	rows := c.TrainDays * c.Sectors()
	need := map[string]map[int]bool{}
	add := func(ex features.Extractor, treeCfg mltree.Config) {
		for _, w := range cfg.Ws {
			work := mltree.SplitWork(treeCfg, rows, ex.Width(c.View, w))
			if c.SplitAlgo.Resolve(work) != mltree.SplitHist {
				continue
			}
			ws := need[ex.Name()]
			if ws == nil {
				ws = map[int]bool{}
				need[ex.Name()] = ws
			}
			ws[w] = true
		}
	}
	for _, m := range cfg.Models {
		switch mm := m.(type) {
		case *ClassifierModel:
			if mm.SectorSubset != nil {
				continue // bespoke rows bypass the all-sector cache
			}
			treeCfg := mltree.ForestTreeConfig()
			if mm.SingleTree {
				treeCfg = mltree.TreeConfig()
			}
			add(mm.Extractor, treeCfg)
		case *GBTModel:
			add(mm.Extractor, mltree.Config{Rule: mltree.SqrtFeatures})
		}
	}
	if len(need) == 0 {
		return nil
	}
	out := map[string][]int{}
	for name, ws := range need {
		for w := range ws {
			out[name] = append(out[name], w)
		}
		sort.Ints(out[name])
	}
	return out
}

// evalPoint evaluates all models at one grid point.
func evalPoint(c *Context, cfg SweepConfig, t, h, w int) ([]Record, error) {
	if err := c.CheckTask(t, h, w); err != nil {
		return nil, fmt.Errorf("forecast: grid point (t=%d,h=%d,w=%d): %w", t, h, w, err)
	}
	y := c.Labels(cfg.Target)
	evalDay := t + h
	labels := y.Col(evalDay)
	positives := 0
	for _, v := range labels {
		if v > 0 {
			positives++
		}
	}

	// Chance level: average psi over several independent random rankings.
	// Each repetition draws from a sub-stream keyed by (t, h, r) — never by
	// scheduling order — so the estimate is identical at any worker count,
	// and the fixed summation order keeps it bit-identical too.
	psiRandom := math.NaN()
	if positives > 0 {
		aps := make([]float64, cfg.RandomRepeats)
		// The closure never fails, so For's error is statically nil.
		_ = parallel.For(cfg.Workers, cfg.RandomRepeats, func(r int) error {
			rng := randx.DeriveIndexed(c.Seed, 0xc4a7ce, "psi-random", (t*1000+h)*64+r)
			scores := make([]float64, len(labels))
			for i := range scores {
				scores[i] = rng.Float64()
			}
			aps[r] = eval.AveragePrecision(scores, labels)
			return nil
		})
		sum := 0.0
		for _, ap := range aps {
			sum += ap
		}
		psiRandom = sum / float64(cfg.RandomRepeats)
	}

	var out []Record
	for _, m := range cfg.Models {
		rec := Record{Model: m.Name(), Target: cfg.Target, T: t, H: h, W: w, Positives: positives, PsiRandom: psiRandom}
		if positives == 0 {
			rec.Psi, rec.Lift = math.NaN(), math.NaN()
			out = append(out, rec)
			continue
		}
		scores, err := m.Forecast(c, cfg.Target, t, h, w)
		if err != nil {
			return nil, fmt.Errorf("forecast: model %s at (t=%d,h=%d,w=%d): %w", m.Name(), t, h, w, err)
		}
		rec.Psi = eval.AveragePrecision(scores, labels)
		rec.Lift = eval.Lift(rec.Psi, psiRandom)
		out = append(out, rec)
	}
	return out, nil
}

// LiftsByModelH aggregates mean lift per (model, h) over t (for a fixed w),
// the quantity plotted in Figs. 9 and 11. It returns model -> h -> lifts
// (one per t).
func (r *Result) LiftsByModelH(w int) map[string]map[int][]float64 {
	out := map[string]map[int][]float64{}
	for _, rec := range r.Records {
		if rec.W != w || math.IsNaN(rec.Lift) {
			continue
		}
		byH, ok := out[rec.Model]
		if !ok {
			byH = map[int][]float64{}
			out[rec.Model] = byH
		}
		byH[rec.H] = append(byH[rec.H], rec.Lift)
	}
	return out
}

// LiftsByModelW aggregates lifts per (model, w) for a fixed h over t, the
// quantity plotted in Figs. 13 and 14.
func (r *Result) LiftsByModelW(model string, h int) map[int][]float64 {
	out := map[int][]float64{}
	for _, rec := range r.Records {
		if rec.Model != model || rec.H != h || math.IsNaN(rec.Lift) {
			continue
		}
		out[rec.W] = append(out[rec.W], rec.Lift)
	}
	return out
}

// PsiSeries returns the average-precision values for one model across all
// records matching the filter (used by the Sec. V-A stability test).
func (r *Result) PsiSeries(model string, keep func(Record) bool) []float64 {
	var out []float64
	for _, rec := range r.Records {
		if rec.Model != model || math.IsNaN(rec.Psi) {
			continue
		}
		if keep == nil || keep(rec) {
			out = append(out, rec.Psi)
		}
	}
	return out
}

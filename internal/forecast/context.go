// Package forecast implements the paper's forecasting methodology
// (Sec. IV): the training/prediction protocol of Eqs. 6-7, the four
// baseline models (Random, Persist, Average, Trend), the four tree-based
// classifiers (Tree, RF-R, RF-F1, RF-F2), and the evaluation sweep over
// forecast day t, horizon h and past window w (Table III).
package forecast

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/bytelru"
	"repro/internal/featcache"
	"repro/internal/features"
	"repro/internal/mltree"
	"repro/internal/obs"
	"repro/internal/score"
	"repro/internal/tensor"
	"repro/internal/timegrid"
)

// DefaultCacheBytes is the feature-matrix cache budget used when
// Context.CacheBytes is zero: 256 MiB.
const DefaultCacheBytes int64 = 256 << 20

// DefaultModelCacheBytes is the trained-model cache budget used when
// Context.ModelCacheBytes is zero: 64 MiB.
const DefaultModelCacheBytes int64 = 64 << 20

// Target selects which binary variable is being forecast.
type Target int

// Forecast targets (Sec. IV-A).
const (
	// BeHot is the daily "is a hot spot" label Y^d.
	BeHot Target = iota
	// BecomeHot is the non-regular "become a hot spot" label.
	BecomeHot
)

// String names the target.
func (t Target) String() string {
	if t == BecomeHot {
		return "become-hot-spot"
	}
	return "hot-spot"
}

// Context bundles everything models need: the virtual Eq. 5 input tensor,
// the daily scores, and the label matrices for both targets.
type Context struct {
	View *features.View
	// Sd is the daily score matrix (n x md), used by Average/Trend.
	Sd *tensor.Matrix
	// YdHot is the daily hot-spot label matrix.
	YdHot *tensor.Matrix
	// YdBecome is the become-a-hot-spot label matrix.
	YdBecome *tensor.Matrix
	// TrainDays is how many recent label days are stacked to form the
	// classifier training set. The paper trains on a single label day with
	// tens of thousands of sectors; at reproduction scale single days hold
	// too few positives, so several adjacent days are pooled (DESIGN.md §6).
	TrainDays int
	// ForestTrees is the ensemble size for the RF models.
	ForestTrees int
	// FitWorkers bounds the tree-level parallelism inside one forest fit
	// (0 = GOMAXPROCS). Sweeps that already fan grid points across all
	// cores set this to 1 so the two levels do not oversubscribe.
	FitWorkers int
	// Seed drives every stochastic model component.
	Seed uint64
	// CacheBytes bounds the shared feature-matrix cache (an LRU by byte
	// budget, see internal/featcache): 0 selects DefaultCacheBytes, a
	// negative value disables caching entirely. Reconfigure only between
	// sweeps, never while one is running.
	CacheBytes int64
	// ModelCacheBytes bounds the shared trained-model cache (an LRU by byte
	// budget with single-flight fits, see internal/bytelru): 0 selects
	// DefaultModelCacheBytes, a negative value disables trained-model
	// caching. Fits are deterministic per training task, so a cached
	// artifact predicts bit-identically to a refit; disable it only to
	// measure raw fit cost (the perf benches do).
	// Reconfigure only between sweeps, never while one is running.
	ModelCacheBytes int64
	// SplitAlgo once selected the tree-training split search.
	//
	// Deprecated: ignored; hist is the only engine.
	SplitAlgo mltree.SplitAlgo

	cacheMu    sync.Mutex
	cache      *featcache.Cache
	cacheLimit int64

	modelMu    sync.Mutex
	models     *bytelru.Cache[fitKey, Trained]
	modelLimit int64

	fpOnce sync.Once
	fp     uint64
}

// NewContext assembles a Context from a scored dataset.
func NewContext(k *tensor.Tensor3, cal *tensor.Matrix, set *score.Set, seed uint64) (*Context, error) {
	v, err := features.NewView(k, cal, set.Sh, set.Sd, set.Sw, set.Yd)
	if err != nil {
		return nil, err
	}
	become := score.BecomeLabels(set.Sd, set.Weighting.HotThreshold)
	return &Context{
		View:        v,
		Sd:          set.Sd,
		YdHot:       set.Yd,
		YdBecome:    become,
		TrainDays:   4,
		ForestTrees: 24,
		Seed:        seed,
	}, nil
}

// Labels returns the label matrix for a target.
func (c *Context) Labels(target Target) *tensor.Matrix {
	if target == BecomeHot {
		return c.YdBecome
	}
	return c.YdHot
}

// Sectors returns n.
func (c *Context) Sectors() int { return c.View.Sectors() }

// Days returns m^d.
func (c *Context) Days() int { return c.View.Hours() / timegrid.HoursPerDay }

// CheckTask validates a (t, h, w) evaluation task: training needs the
// window ending at t-h (with TrainDays of history) and evaluation needs
// day t+h inside the grid.
func (c *Context) CheckTask(t, h, w int) error {
	if err := c.checkHistory(t, h, w); err != nil {
		return err
	}
	if t+h >= c.Days() {
		return fmt.Errorf("forecast: evaluation day t+h=%d outside grid of %d days", t+h, c.Days())
	}
	return nil
}

// CheckFit validates that the training data for a fit at (t, h, w) exists:
// TrainDays label days ending at t, each paired with a w-day feature
// window ending h days earlier. Unlike CheckTask it does not require day
// t+h — an artifact fitted at the edge of the data serves genuinely future
// forecasts.
func (c *Context) CheckFit(t, h, w int) error {
	if err := c.checkHistory(t, h, w); err != nil {
		return err
	}
	if t >= c.Days() {
		return fmt.Errorf("forecast: fit at t=%d needs labels inside the grid of %d days", t, c.Days())
	}
	return nil
}

// checkHistory is the shared backward-looking half of CheckTask/CheckFit.
func (c *Context) checkHistory(t, h, w int) error {
	if h < 1 {
		return fmt.Errorf("forecast: horizon %d < 1", h)
	}
	if w < 1 {
		return fmt.Errorf("forecast: window %d < 1", w)
	}
	earliest := t - h - w - (c.TrainDays - 1)
	if earliest < 0 {
		return fmt.Errorf("forecast: t=%d h=%d w=%d needs day %d of history", t, h, w, earliest)
	}
	return nil
}

// DatasetFingerprint returns a stable 64-bit hash identifying the dataset
// behind this context: the sector set, the day range and the KPI layout.
// Fit stamps it into every artifact (and the .hotm envelope carries it), so
// a serving context can detect an artifact trained on different data before
// it produces silently wrong rankings. The hash covers the tensor shapes,
// the full daily score matrix and a deterministic stride of the raw KPI
// tensor; it is computed once per context and never zero.
func (c *Context) DatasetFingerprint() uint64 {
	c.fpOnce.Do(func() {
		h := fnv.New64a()
		var buf [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		k := c.View.K
		put(uint64(k.N))
		put(uint64(k.T))
		put(uint64(k.F))
		put(uint64(c.View.Channels()))
		for _, v := range c.Sd.Data {
			put(math.Float64bits(v))
		}
		// Sample the raw KPI tensor on a deterministic stride over its
		// logical (sector, hour, KPI) elements, whatever rows back them:
		// two datasets with equal scores but different measurements still
		// differ here.
		per, total := k.T*k.F, k.N*k.T*k.F
		stride := total/(1<<16) + 1
		for e := 0; e < total; e += stride {
			put(math.Float64bits(k.Sector(e / per)[e%per]))
		}
		c.fp = h.Sum64()
		if c.fp == 0 { // keep 0 free: decode rejects a zero-fingerprint artifact
			c.fp = 1
		}
	})
	return c.fp
}

// CheckArtifact verifies that tr was trained on the dataset behind this
// context, by fingerprint.
func (c *Context) CheckArtifact(tr Trained) error {
	fp := tr.DatasetFingerprint()
	if got := c.DatasetFingerprint(); fp != got {
		return fmt.Errorf("forecast: artifact %s (target %s, h=%d w=%d) was trained on a different dataset: fingerprint %016x, serving data %016x",
			tr.ModelName(), tr.Target(), tr.Horizon(), tr.Window(), fp, got)
	}
	return nil
}

// CheckPredict validates a (t, w) prediction input: the w-day feature
// window ending (exclusive) at day t must lie inside the grid. t equal to
// Days() is allowed — predicting off the final day is the serving case.
func (c *Context) CheckPredict(t, w int) error {
	if w < 1 {
		return fmt.Errorf("forecast: window %d < 1", w)
	}
	if t-w < 0 {
		return fmt.Errorf("forecast: prediction at t=%d needs day %d of history", t, t-w)
	}
	if t > c.Days() {
		return fmt.Errorf("forecast: prediction day t=%d outside grid of %d days", t, c.Days())
	}
	return nil
}

// FeatureCache returns the shared feature-matrix cache, creating it on
// first use; nil when CacheBytes is negative. Changing CacheBytes between
// sweeps replaces the cache with a freshly budgeted (empty) one.
func (c *Context) FeatureCache() *featcache.Cache {
	if c.CacheBytes < 0 {
		return nil
	}
	limit := c.CacheBytes
	if limit == 0 {
		limit = DefaultCacheBytes
	}
	c.cacheMu.Lock()
	defer c.cacheMu.Unlock()
	if c.cache == nil || c.cacheLimit != limit {
		c.cache = featcache.New(limit)
		c.cacheLimit = limit
		// Rebind the exported series to the new cache (latest wins), so
		// bytelru_*{cache="features"} always reflects the live cache.
		bytelru.RegisterMetrics(obs.Default(), "features", c.cache.Meter().Stats)
	}
	return c.cache
}

// FeatureMatrix returns the all-sector feature matrix for windows of w
// days ending (exclusive) at day end, through the shared cache when one is
// enabled. The handle is immutable and may be shared by concurrent grid
// points; extraction is deterministic, so a cached matrix is bit-identical
// to a fresh build.
func (c *Context) FeatureMatrix(ex features.Extractor, end, w int) (*featcache.Matrix, error) {
	key := featcache.Key{Extractor: ex.Name(), End: end, W: w}
	return c.cachedBuild(key, func() (*featcache.Matrix, error) {
		data, width, err := features.BuildAllSectors(c.View, ex, end, w)
		if err != nil {
			return nil, err
		}
		return &featcache.Matrix{Data: data, Rows: c.Sectors(), Width: width}, nil
	})
}

// cachedBuild returns key's matrix through the shared feature cache, or
// builds it afresh when the cache is disabled.
func (c *Context) cachedBuild(key featcache.Key, build func() (*featcache.Matrix, error)) (*featcache.Matrix, error) {
	cache := c.FeatureCache()
	if cache == nil {
		return build()
	}
	return cache.GetOrBuild(key, build)
}

// BinnedTrainingMatrix returns the quantized Eq. 7 training matrix for a
// fit with cutoff t-h: the TrainDays stacked all-sector blocks, binned
// once with mltree.Bin — the one form every tree, forest and GBT fit
// reads. The handle is cached under (extractor, cutoff, w, TrainDays)
// when the feature cache is enabled, so every tree of a forest, every
// boosting round, every model sharing the extractor, and every grid point
// on the same (t-h) anti-diagonal reuses one quantization; the float slab
// it was binned from is not kept. Cut points sit at uniform quantiles,
// which suits the models sharing a handle: they carry different sample
// weights (balanced vs. unbalanced, per-tree bootstrap draws, per-round
// boosting subsamples), so no one weighting could serve them all. Binning
// is deterministic, so a cached handle is bit-identical to a fresh build.
func (c *Context) BinnedTrainingMatrix(ex features.Extractor, t, h, w int) (*featcache.Matrix, error) {
	cutoff := t - h
	key := featcache.Key{Extractor: ex.Name(), End: cutoff, W: w, Days: c.TrainDays}
	return c.cachedBuild(key, func() (*featcache.Matrix, error) {
		all := make([]int, c.Sectors())
		for i := range all {
			all[i] = i
		}
		sectors, ends := trainingInstances(c, all, cutoff)
		x, width, err := features.BuildMatrix(c.View, ex, sectors, ends, w, c.FitWorkers)
		if err != nil {
			return nil, err
		}
		bn, err := mltree.Bin(x, len(sectors), width, c.FitWorkers)
		if err != nil {
			return nil, err
		}
		return &featcache.Matrix{Rows: len(sectors), Width: width, Bin: bn}, nil
	})
}

// Model is a hot-spot forecaster. Given the data available at day t it
// produces, for every sector, a ranking score for the probability of being
// (or becoming) a hot spot at day t+h, using at most w days of history
// (Eq. 6).
//
// The contract is two-phase: Fit trains on the h-delayed slice per Eq. 7
// (a no-op capture for the baselines) and returns an immutable Trained
// artifact; the artifact's Predict scores any later day from the window
// ending there. Forecast is the one-shot convenience that fits (through
// the Context's trained-model cache) and predicts at the same day.
type Model interface {
	// Name is the paper's model name.
	Name() string
	// Fit trains the model for horizon h on the data available at day t
	// (labels through t, feature windows of w days ending h days before
	// each label day) and returns the immutable artifact.
	Fit(c *Context, target Target, t, h, w int) (Trained, error)
	// Forecast returns one ranking score per sector for day t+h: the
	// Fit+Predict shim.
	Forecast(c *Context, target Target, t, h, w int) ([]float64, error)
}

// cacheableModel is implemented by models whose fits are expensive and
// fully determined by (fingerprint, target, t, h, w) on a fixed Context.
// The fingerprint must encode every hyper-parameter that shapes the fit —
// two model values that agree on it train byte-identical artifacts — and
// ok=false opts a configuration out (e.g. the sector-subset ablation,
// whose training rows are not part of the key).
type cacheableModel interface {
	fitFingerprint(c *Context) (fp string, ok bool)
}

// fitKey identifies one distinct training task: the model fingerprint
// (see cacheableModel), the forecast target, the train cutoff t-h (the
// exclusive end day of the latest feature window the fit consumes), the
// Eq. 7 label gap h (labels sit h days after each feature window, so
// tasks sharing a cutoff but not h differ) and the past window w.
type fitKey struct {
	model        string
	target       Target
	cutoff, h, w int
}

// ModelCache returns the shared trained-model cache, creating it on first
// use; nil when ModelCacheBytes is negative. Changing ModelCacheBytes
// between sweeps replaces the cache with a freshly budgeted (empty) one.
func (c *Context) ModelCache() *bytelru.Cache[fitKey, Trained] {
	if c.ModelCacheBytes < 0 {
		return nil
	}
	limit := c.ModelCacheBytes
	if limit == 0 {
		limit = DefaultModelCacheBytes
	}
	c.modelMu.Lock()
	defer c.modelMu.Unlock()
	if c.models == nil || c.modelLimit != limit {
		c.models = bytelru.New[fitKey, Trained](limit)
		c.modelLimit = limit
		// Latest-wins rebind, as with the feature cache above.
		bytelru.RegisterMetrics(obs.Default(), "models", c.models.Meter().Stats)
	}
	return c.models
}

// TrainedModel returns the fitted artifact for (m, target, t, h, w),
// through the shared trained-model cache when the model is cacheable and
// the cache enabled. Fits are deterministic per task, so a cached artifact
// is bit-identical to a fresh fit; concurrent callers for one task share a
// single fit.
func (c *Context) TrainedModel(m Model, target Target, t, h, w int) (Trained, error) {
	if cm, ok := m.(cacheableModel); ok {
		if cache := c.ModelCache(); cache != nil {
			if fp, cacheable := cm.fitFingerprint(c); cacheable {
				key := fitKey{model: fp, target: target, cutoff: t - h, h: h, w: w}
				return cache.GetOrBuild(key, func() (Trained, error) {
					return m.Fit(c, target, t, h, w)
				})
			}
		}
	}
	return m.Fit(c, target, t, h, w)
}

// fitPredict is the Fit+Predict shim behind every Model.Forecast: validate
// the full evaluation task (matching the pre-split Forecast contract),
// obtain the artifact through the trained-model cache, and predict at the
// fit day.
func fitPredict(m Model, c *Context, target Target, t, h, w int) ([]float64, error) {
	if err := c.CheckTask(t, h, w); err != nil {
		return nil, err
	}
	tr, err := c.TrainedModel(m, target, t, h, w)
	if err != nil {
		return nil, err
	}
	return tr.Predict(c, t, w)
}

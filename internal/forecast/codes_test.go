package forecast

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/featcache"
	"repro/internal/features"
	"repro/internal/mltree"
	"repro/internal/randx"
)

// codeModels returns Tree, RF-F1 and GBT-F1, thinned for test speed.
func codeModels() []Model {
	gbt := NewGBT()
	gbt.Config.Rounds = 8
	return []Model{NewTreeModel(), NewRFF1(), gbt}
}

// fitCodeArtifact fits m at (t, h, w) and returns its classifier artifact
// and the walked learner its engine was flattened from.
func fitCodeArtifact(t *testing.T, c *Context, m Model, fitT, h, w int) (*classifierArtifact, walkedLearner) {
	t.Helper()
	lf := m.(interface {
		fitLearner(c *Context, target Target, t, h, w int) (Trained, walkedLearner, error)
	})
	tr, learner, err := lf.fitLearner(c, BeHot, fitT, h, w)
	if err != nil {
		t.Fatalf("%s: fit: %v", m.Name(), err)
	}
	ca, ok := tr.(*classifierArtifact)
	if !ok || learner == nil {
		t.Fatalf("%s: fit returned %T, want a classifier artifact", m.Name(), tr)
	}
	return ca, learner
}

// freshCache gives c an empty feature cache (a new budget starts one) and
// returns it.
func freshCache(c *Context) *featcache.Cache {
	c.CacheBytes = DefaultCacheBytes + 1
	if c.cacheLimit == c.CacheBytes {
		c.CacheBytes++
	}
	return c.FeatureCache()
}

// predictBits predicts a at (t, w) and fails on error.
func predictBits(t *testing.T, a Trained, c *Context, day, w int) []float64 {
	t.Helper()
	out, err := a.Predict(c, day, w)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameBits fails unless got and want are equal bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d scores, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: sector %d scores %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestPredictCodesBitIdentical: Predict from a cache hit, from a miss,
// with the cache disabled, and walking the learner over the full-width
// FeatureMatrix give the same bits, for Tree, RF and GBT, at sector counts
// that leave a partial 8-row group and a partial 256-row tile.
func TestPredictCodesBitIdentical(t *testing.T) {
	const fitT, h, w = 30, 2, 5
	for _, fx := range []struct {
		sectors int
		seed    uint64
	}{{110, 61}, {283, 67}} {
		c := testContext(t, fx.sectors, 6, fx.seed)
		c.ForestTrees = 4
		n := c.Sectors()
		if n%8 == 0 || (fx.sectors > 256) != (n > 256) {
			t.Fatalf("fixture kept %d of %d sectors; the test needs a partial group, in one tile and in two", n, fx.sectors)
		}
		for _, m := range codeModels() {
			a, learner := fitCodeArtifact(t, c, m, fitT, h, w)
			for _, day := range []int{fitT, fitT + 3} {
				what := func(path string) string {
					return fmt.Sprintf("%s, %d sectors, day %d, %s", m.Name(), n, day, path)
				}
				full, err := c.FeatureMatrix(a.extractor, day, w)
				if err != nil {
					t.Fatal(err)
				}
				walked := make([]float64, n)
				probs := make([]float64, 2)
				for i := range walked {
					learner.PredictProbaInto(full.Data[i*a.FeatureWidth():(i+1)*a.FeatureWidth()], probs)
					walked[i] = probs[1]
				}

				cache := freshCache(c)
				miss := predictBits(t, a, c, day, w)
				hit := predictBits(t, a, c, day, w)
				if s := cache.Stats(); s.Misses != 1 || s.Hits != 1 {
					t.Fatalf("%s: %d misses and %d hits, want one of each", what("cache"), s.Misses, s.Hits)
				}
				budget := c.CacheBytes
				c.CacheBytes = -1
				uncached := predictBits(t, a, c, day, w)
				c.CacheBytes = budget

				sameBits(t, what("miss"), miss, walked)
				sameBits(t, what("hit"), hit, walked)
				sameBits(t, what("cache off"), uncached, walked)
			}
		}
	}
}

// stumpArtifact is a one-split Tree artifact over feature col of ex's
// width-wide vector at window w, fitted on rows that hold x (one value per
// sector) in column col and zeros elsewhere, to the label x > cut.
func stumpArtifact(t *testing.T, ex features.Extractor, width, col, w int, x []float64, cut float64) (*classifierArtifact, *mltree.Tree) {
	t.Helper()
	y := make([]int, len(x))
	rows := make([]float64, len(x)*width)
	for i, v := range x {
		rows[i*width+col] = v
		if v > cut {
			y[i] = 1
		}
	}
	bn, err := mltree.Bin(rows, len(x), width, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mltree.TreeConfig()
	cfg.MaxDepth = 1
	tree, err := mltree.FitTreeBinned(bn, y, nil, cfg, randx.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	fl, err := tree.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return &classifierArtifact{artifactMeta: artifactMeta{name: "Tree", w: w, h: 1, fp: 1},
		kind: kindTree, extractor: ex, engine: fl}, tree
}

// TestCodeEntriesKeyedByEngine: two artifacts that read the same column
// at different cuts never share a cached entry: each scores its own
// cuts on a hit, bit-identical to walking its learner.
func TestCodeEntriesKeyedByEngine(t *testing.T) {
	const day, w = 30, 5
	c := testContext(t, 90, 6, 71)
	ex := features.Percentiles{}
	full, err := c.FeatureMatrix(ex, day, w)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Sectors()
	// The first column whose values spread over most sectors.
	col := -1
	x := make([]float64, n)
	for j := 0; j < full.Width && col < 0; j++ {
		for i := range x {
			x[i] = full.Data[i*full.Width+j]
		}
		sorted := slices.Clone(x)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) > n/2 {
			col = j
		}
	}
	if col < 0 {
		t.Fatal("no spread-out feature column")
	}
	sorted := slices.Clone(x)
	slices.Sort(sorted)
	a, ta := stumpArtifact(t, ex, full.Width, col, w, x, sorted[n/2])
	b, tb := stumpArtifact(t, ex, full.Width, col, w, x, sorted[3*n/4])
	if ca, cb := a.engine.Cols(), b.engine.Cols(); len(ca) != 1 || int(ca[0]) != col || !slices.Equal(ca, cb) {
		t.Fatalf("artifacts read columns %v and %v, want [%d] both", ca, cb, col)
	}

	walk := func(tree *mltree.Tree) []float64 {
		out, probs := make([]float64, n), make([]float64, 2)
		for i := range out {
			tree.PredictProbaInto(full.Data[i*full.Width:(i+1)*full.Width], probs)
			out[i] = probs[1]
		}
		return out
	}
	wantA, wantB := walk(ta), walk(tb)
	if slices.Equal(wantA, wantB) {
		t.Fatal("the two cuts score every sector alike; the test cannot tell them apart")
	}

	cache := freshCache(c)
	sameBits(t, "median cut", predictBits(t, a, c, day, w), wantA)
	sameBits(t, "upper-quartile cut", predictBits(t, b, c, day, w), wantB)
	sameBits(t, "median cut, cached", predictBits(t, a, c, day, w), wantA)
	sameBits(t, "upper-quartile cut, cached", predictBits(t, b, c, day, w), wantB)
	if s := cache.Stats(); s.Entries != 2 || s.Hits != 2 {
		t.Fatalf("cache holds %d entries after %d hits, want one per engine after 2", s.Entries, s.Hits)
	}
}

// TestReplacedArtifactCollectableWhileCached: after a hot reload replaces
// an artifact, the old artifact and its engine are garbage-collected
// while the code tiles they cached are still resident: the cache key
// names the engine by ID and holds no pointer to it.
func TestReplacedArtifactCollectableWhileCached(t *testing.T) {
	const fitT, h, w = 30, 2, 5
	c := testContext(t, 80, 6, 73)
	c.ForestTrees = 3
	tr, err := NewRFF1().Fit(c, BeHot, fitT, h, w)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeModel(tr)
	if err != nil {
		t.Fatal(err)
	}
	cache := freshCache(c)
	freed := make(chan string, 2)
	var oldKeys []featcache.Key
	func() {
		old, err := DecodeModel(data)
		if err != nil {
			t.Fatal(err)
		}
		ca := old.(*classifierArtifact)
		for _, day := range []int{fitT, fitT + 1} {
			predictBits(t, old, c, day, w)
			oldKeys = append(oldKeys, featcache.Key{Extractor: ca.extractor.Name(), End: day, W: w, Engine: ca.engine.ID()})
		}
		runtime.SetFinalizer(ca, func(*classifierArtifact) { freed <- "artifact" })
		runtime.SetFinalizer(ca.engine, func(*mltree.Flat) { freed <- "engine" })
	}()
	// The reload: the same version decoded afresh serves from here on.
	cur, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	predictBits(t, cur, c, fitT, w)
	deadline := time.After(5 * time.Second)
	for collected := map[string]bool{}; len(collected) < 2; {
		runtime.GC()
		select {
		case what := <-freed:
			collected[what] = true
		case <-deadline:
			t.Fatalf("of the replaced artifact and its engine, only %v were collected", collected)
		case <-time.After(10 * time.Millisecond):
		}
	}
	for _, key := range oldKeys {
		if !resident(cache, key) {
			t.Fatalf("entry %+v left the cache with its artifact", key)
		}
	}
	if got := cache.Stats().Entries; got != 3 {
		t.Fatalf("cache holds %d entries, want 3 (two of the old engine, one of the new)", got)
	}
	runtime.KeepAlive(cur)
}

// TestCodeCacheHoldsOnlyTiles: after Tree, RF-F1 and GBT-F1 predict D
// days, the feature cache holds one entry per (artifact, day) and its
// bytes are exactly the code tiles: one byte per code, 256 rows per tile,
// one tile column per feature the artifact reads.
func TestCodeCacheHoldsOnlyTiles(t *testing.T) {
	const fitT, h, w, days = 30, 2, 5, 4
	c := testContext(t, 100, 6, 79)
	c.ForestTrees = 4
	n := c.Sectors()
	var arts []*classifierArtifact
	for _, m := range codeModels() {
		a, _ := fitCodeArtifact(t, c, m, fitT, h, w)
		arts = append(arts, a)
	}
	cache := freshCache(c)
	var want int64
	for day := fitT; day < fitT+days; day++ {
		for _, a := range arts {
			predictBits(t, a, c, day, w)
			want += int64((n+255)/256*256) * int64(a.FeaturesRead())
		}
	}
	s := cache.Stats()
	if s.Entries != days*len(arts) || s.Bytes != want {
		t.Fatalf("cache holds %d entries of %d bytes, want %d entries of %d bytes (the code tiles)",
			s.Entries, s.Bytes, days*len(arts), want)
	}
}

package mltree

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/binenc"
	"repro/internal/randx"
)

// flatTestData builds a random training set with a signal in the first
// features, plus a disjoint evaluation block drawn from the same
// distribution.
func flatTestData(seed uint64, n, f int) (x []float64, y []int, eval []float64) {
	rng := randx.New(seed, 0xf1a7)
	x = make([]float64, n*f)
	y = make([]int, n)
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
	eval = make([]float64, n*f)
	for i := range eval {
		eval[i] = rng.Norm(0, 1)
	}
	return x, y, eval
}

// mustFlat unwraps a Flatten result: mustFlat(t)(tree.Flatten()).
func mustFlat(t testing.TB) func(*Flat, error) *Flat {
	return func(fl *Flat, err error) *Flat {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
}

func TestFlatTreeMatchesWalked(t *testing.T) {
	x, y, eval := flatTestData(5, 400, 12)
	tree, err := FitTree(x, 400, 12, y, nil, 2, TreeConfig(), randx.New(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	ft := mustFlat(t)(tree.Flatten())
	if ft.FlatBytes() <= 0 {
		t.Fatal("flat tree reports no bytes")
	}
	n := 400
	scores := make([]float64, n)
	ft.ScoreBatch(eval, n, scores)
	want := make([]float64, 2)
	for i := 0; i < n; i++ {
		tree.PredictProbaInto(eval[i*12:(i+1)*12], want)
		if scores[i] != want[1] {
			t.Fatalf("row %d: score %v, walked %v", i, scores[i], want[1])
		}
	}
}

func TestFlatForestMatchesWalked(t *testing.T) {
	x, y, eval := flatTestData(11, 500, 10)
	cfg := DefaultForestConfig()
	cfg.NumTrees = 9
	fo, err := FitForest(x, 500, 10, y, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ff := mustFlat(t)(fo.Flatten())
	if ff.NumTrees() != 9 || ff.FlatBytes() <= 0 {
		t.Fatalf("flat forest shape: trees %d bytes %d", ff.NumTrees(), ff.FlatBytes())
	}
	n := 500
	scores := make([]float64, n)
	ff.ScoreBatch(eval, n, scores)
	want := make([]float64, 2)
	for i := 0; i < n; i++ {
		fo.PredictProbaInto(eval[i*10:(i+1)*10], want)
		if scores[i] != want[1] {
			t.Fatalf("row %d: score %v, walked probs[1] %v", i, scores[i], want[1])
		}
		// The Into path must also agree with the allocating historical one.
		if legacy := fo.PredictProba(eval[i*10 : (i+1)*10]); legacy[0] != want[0] || legacy[1] != want[1] {
			t.Fatalf("row %d: PredictProbaInto %v, PredictProba %v", i, want, legacy)
		}
	}
}

func TestFlatGBTMatchesWalked(t *testing.T) {
	x, y, eval := flatTestData(23, 600, 8)
	cfg := DefaultGBTConfig()
	cfg.Rounds = 12
	g, err := FitGBT(x, 600, 8, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fg := mustFlat(t)(g.Flatten())
	if fg.NumTrees() != 12 || fg.FlatBytes() <= 0 {
		t.Fatalf("flat GBT shape: rounds %d bytes %d", fg.NumTrees(), fg.FlatBytes())
	}
	n := 600
	scores := make([]float64, n)
	fg.ScoreBatch(eval, n, scores)
	want := make([]float64, 2)
	for i := 0; i < n; i++ {
		g.PredictProbaInto(eval[i*8:(i+1)*8], want)
		if scores[i] != want[1] {
			t.Fatalf("row %d: score %v, walked probs[1] %v", i, scores[i], want[1])
		}
	}
}

// TestFlatSingleLeaf exercises the degenerate encoding: a tree that never
// splits compiles to one self-looping leaf word and no code column.
func TestFlatSingleLeaf(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []int{0, 0, 0} // pure labels: the root is a leaf
	tree, err := FitTree(x, 3, 2, y, nil, 2, TreeConfig(), randx.New(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tree.NodeCount() != 1 {
		t.Fatalf("expected a single-leaf tree, got %d nodes", tree.NodeCount())
	}
	ft := mustFlat(t)(tree.Flatten())
	scores := make([]float64, 3)
	ft.ScoreBatch(x, 3, scores)
	want := make([]float64, 2)
	for i := 0; i < 3; i++ {
		tree.PredictProbaInto(x[i*2:(i+1)*2], want)
		if scores[i] != want[1] {
			t.Fatalf("row %d: flat %v, walked %v", i, scores[i], want[1])
		}
	}
}

// TestFlatNaNThreshold: a NaN split threshold (the binner's midpoint
// between adjacent -Inf and +Inf values) sends every row right, since v <= NaN
// is false; the compiler inlines the right subtree and keeps NaN out of
// the cut tables.
func TestFlatNaNThreshold(t *testing.T) {
	tree := &Tree{NumFeatures: 2, NumClasses: 2, nodes: []node{
		{feature: 0, threshold: math.NaN(), left: 1, right: 2},
		{feature: -1, probs: []float64{1, 0}},
		{feature: 1, threshold: 0.5, left: 3, right: 4},
		{feature: -1, probs: []float64{0.2, 0.8}},
		{feature: -1, probs: []float64{0.6, 0.4}},
	}}
	ft := mustFlat(t)(tree.Flatten())
	x := []float64{0, 0, math.Inf(-1), 1, math.NaN(), 0.5, 1, math.NaN(), -1, math.Inf(1)}
	n := len(x) / 2
	scores := make([]float64, n)
	ft.ScoreBatch(x, n, scores)
	want := make([]float64, 2)
	for i := 0; i < n; i++ {
		tree.PredictProbaInto(x[i*2:(i+1)*2], want)
		if scores[i] != want[1] {
			t.Fatalf("row %d %v: flat %v, walked %v", i, x[i*2:(i+1)*2], scores[i], want[1])
		}
	}
}

// flatKind is a compiled model with its walked learner's class-1 score.
type flatKind struct {
	fl     *Flat
	walked func(row []float64) float64
}

// flatKinds fits one model of each kind, keyed by kind.
func flatKinds(t testing.TB, x []float64, n, f int, y []int) map[string]flatKind {
	t.Helper()
	out := map[string]flatKind{}
	add := func(name string, fl *Flat, err error, learner interface{ PredictProbaInto(x, out []float64) }) {
		probs := make([]float64, 2)
		out[name] = flatKind{mustFlat(t)(fl, err), func(row []float64) float64 {
			learner.PredictProbaInto(row, probs)
			return probs[1]
		}}
	}
	tree, err := FitTree(x, n, f, y, nil, 2, TreeConfig(), randx.New(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	fl, err := tree.Flatten()
	add("tree", fl, err, tree)
	fcfg := DefaultForestConfig()
	fcfg.NumTrees = 5
	fo, err := FitForest(x, n, f, y, nil, 2, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	fl, err = fo.Flatten()
	add("forest", fl, err, fo)
	gcfg := DefaultGBTConfig()
	gcfg.Rounds = 8
	g, err := FitGBT(x, n, f, y, nil, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	fl, err = g.Flatten()
	add("gbt", fl, err, g)
	return out
}

// TestFlatBatchChunkEquality: scoring a block in chunks of 1, 7 and n must
// write exactly the bytes the one-shot batch writes — batch size can never
// change a score.
func TestFlatBatchChunkEquality(t *testing.T) {
	x, y, eval := flatTestData(41, 300, 9)
	cfg := DefaultForestConfig()
	cfg.NumTrees = 5
	fo, err := FitForest(x, 300, 9, y, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ff := mustFlat(t)(fo.Flatten())
	n, f := 300, 9
	full := make([]float64, n)
	ff.ScoreBatch(eval, n, full)
	for _, chunk := range []int{1, 7, n} {
		got := make([]float64, n)
		for start := 0; start < n; start += chunk {
			end := min(start+chunk, n)
			ff.ScoreBatch(eval[start*f:end*f], end-start, got[start:end])
		}
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("chunk %d: value %d is %v, full batch %v", chunk, i, got[i], full[i])
			}
		}
	}
}

// TestFlatEveryBatchSizeMatches: scoring a block in batches of every size
// from 1 to 17 rows, and of 255, 256 and 257, writes exactly the bytes
// of the one-shot batch, which matches the walked learner, for every
// model kind. Batches under 8 rows run only the
// partial-group path; larger ones mix it with full groups and cross the
// 256-row block boundary.
func TestFlatEveryBatchSizeMatches(t *testing.T) {
	const n, f = 300, 9
	x, y, eval := flatTestData(43, n, f)
	poisonRows(eval, f)
	for name, k := range flatKinds(t, x, n, f, y) {
		full := make([]float64, n)
		k.fl.ScoreBatch(eval, n, full)
		for i := range full {
			if want := k.walked(eval[i*f : (i+1)*f]); full[i] != want {
				t.Fatalf("%s: row %d scores %v, walked %v", name, i, full[i], want)
			}
		}
		sizes := []int{255, 256, 257}
		for size := 1; size <= 17; size++ {
			sizes = append(sizes, size)
		}
		for _, size := range sizes {
			got := make([]float64, n)
			for start := 0; start < n; start += size {
				end := min(start+size, n)
				k.fl.ScoreBatch(eval[start*f:end*f], end-start, got[start:end])
			}
			for i := range full {
				if math.Float64bits(got[i]) != math.Float64bits(full[i]) {
					t.Fatalf("%s batch size %d: row %d is %v, one-shot %v", name, size, i, got[i], full[i])
				}
			}
		}
	}
}

func TestFlatBatchShapePanics(t *testing.T) {
	x, y, _ := flatTestData(51, 100, 4)
	tree, err := FitTree(x, 100, 4, y, nil, 2, TreeConfig(), randx.New(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	ft := mustFlat(t)(tree.Flatten())
	for name, call := range map[string]func(){
		"short x":   func() { ft.ScoreBatch(x[:7], 2, make([]float64, 2)) },
		"short out": func() { ft.ScoreBatch(x[:8], 2, make([]float64, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// poisonRows drops NaNs into a few evaluation rows: the quantizer must
// send them down the walked path's NaN route (right at every node).
func poisonRows(eval []float64, f int) {
	for i := 0; i*f+i < len(eval); i += 17 {
		eval[i*f+i%f] = math.NaN()
	}
}

// TestBinnedTreeMatchesFloat: a lone tree's code descent over rows with
// NaNs matches the walked tree's float compares.
func TestBinnedTreeMatchesFloat(t *testing.T) {
	x, y, eval := flatTestData(61, 500, 12)
	poisonRows(eval, 12)
	tree, err := FitTree(x, 500, 12, y, nil, 2, TreeConfig(), randx.New(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	n := 500
	scores := make([]float64, n)
	mustFlat(t)(tree.Flatten()).ScoreBatch(eval, n, scores)
	want := make([]float64, 2)
	for i := 0; i < n; i++ {
		tree.PredictProbaInto(eval[i*12:(i+1)*12], want)
		if scores[i] != want[1] {
			t.Fatalf("row %d: flat %v walked %v", i, scores[i], want[1])
		}
	}
}

func TestBinnedForestMatchesFloat(t *testing.T) {
	x, y, eval := flatTestData(71, 600, 10)
	poisonRows(eval, 10)
	cfg := DefaultForestConfig()
	cfg.NumTrees = 7
	fo, err := FitForest(x, 600, 10, y, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 600
	scores := make([]float64, n)
	mustFlat(t)(fo.Flatten()).ScoreBatch(eval, n, scores)
	want := make([]float64, 2)
	for i := 0; i < n; i++ {
		fo.PredictProbaInto(eval[i*10:(i+1)*10], want)
		if scores[i] != want[1] {
			t.Fatalf("row %d: flat %v walked %v", i, scores[i], want[1])
		}
	}
}

func TestBinnedGBTMatchesFloat(t *testing.T) {
	x, y, eval := flatTestData(81, 600, 8)
	poisonRows(eval, 8)
	cfg := DefaultGBTConfig()
	cfg.Rounds = 15
	g, err := FitGBT(x, 600, 8, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := 600
	scores := make([]float64, n)
	mustFlat(t)(g.Flatten()).ScoreBatch(eval, n, scores)
	want := make([]float64, 2)
	for i := 0; i < n; i++ {
		g.PredictProbaInto(eval[i*8:(i+1)*8], want)
		if scores[i] != want[1] {
			t.Fatalf("row %d: flat %v walked %v", i, scores[i], want[1])
		}
	}
}

// TestBinnedGBTTailRowsMatchWalked: rows past the last full 8-lane group
// of a block descend as a partial group, which must continue each row's
// sum from its prior exactly as the walked path associates it.
func TestBinnedGBTTailRowsMatchWalked(t *testing.T) {
	x, y, eval := flatTestData(83, 600, 8)
	cfg := DefaultGBTConfig()
	cfg.Rounds = 15
	g, err := FitGBT(x, 600, 8, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fg := mustFlat(t)(g.Flatten())
	const n = 263 // one full 256-row block, then 7 tail rows
	scores := make([]float64, n)
	fg.ScoreBatch(eval[:n*8], n, scores)
	want := make([]float64, 2)
	for i := 0; i < n; i++ {
		g.PredictProbaInto(eval[i*8:(i+1)*8], want)
		if scores[i] != want[1] {
			t.Fatalf("row %d: flat %v walked %v", i, scores[i], want[1])
		}
	}
}

// TestBinnedChunkEquality: scoring in odd chunk sizes (which leave
// partial 8-lane groups) writes exactly the bytes of the one-shot batch.
func TestBinnedChunkEquality(t *testing.T) {
	x, y, eval := flatTestData(101, 300, 9)
	poisonRows(eval, 9)
	cfg := DefaultForestConfig()
	cfg.NumTrees = 5
	fo, err := FitForest(x, 300, 9, y, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ff := mustFlat(t)(fo.Flatten())
	n, f := 300, 9
	full := make([]float64, n)
	ff.ScoreBatch(eval, n, full)
	for _, chunk := range []int{1, 3, 11, 257} {
		got := make([]float64, n)
		for start := 0; start < n; start += chunk {
			end := min(start+chunk, n)
			ff.ScoreBatch(eval[start*f:end*f], end-start, got[start:end])
		}
		for i := range full {
			if got[i] != full[i] {
				t.Fatalf("chunk %d: row %d is %v, full batch %v", chunk, i, got[i], full[i])
			}
		}
	}
}

// fullCutForest fits a forest on a label that flips with a fast
// oscillation of feature 0, so its deep trees split feature 0 at most of
// its 255 bin boundaries: one code column near the layout's cut capacity,
// beside the other features' columns.
func fullCutForest(t testing.TB) (*Forest, *Flat) {
	t.Helper()
	const n, f = 3000, 3
	rng := randx.New(131, 0x3c)
	x := make([]float64, n*f)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < f; j++ {
			x[i*f+j] = rng.Norm(0, 1)
		}
		if math.Sin(9*x[i*f])+0.4*x[i*f+1] > 0 {
			y[i] = 1
		}
	}
	cfg := DefaultForestConfig()
	cfg.NumTrees = 8
	fo, err := FitForest(x, n, f, y, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ff := mustFlat(t)(fo.Flatten())
	if len(ff.src) < 2 || ff.src[0] != 0 || ff.cutOff[1] < 128 {
		t.Fatalf("fixture compiled to code columns %v with cut offsets %v; it needs feature 0 at over 128 cuts beside another column",
			ff.src, ff.cutOff)
	}
	return fo, ff
}

// TestFlatRejectsMoreThan255Cuts: a feature split at 256 distinct
// thresholds does not fit one code column, so Flatten refuses it, and the
// decoder refuses an engine that spreads one feature over two columns.
func TestFlatRejectsMoreThan255Cuts(t *testing.T) {
	const m = flatMaxCuts + 1
	tree := &Tree{NumFeatures: 2, NumClasses: 2, importances: make([]float64, 2)}
	for i := 0; i < m; i++ {
		// Node 2i splits at threshold i; its left child is leaf 2i+1 and
		// its right child the next split, or the final leaf.
		tree.nodes = append(tree.nodes,
			node{feature: 0, threshold: float64(i), left: int32(2*i + 1), right: int32(2*i + 2)},
			node{feature: -1, probs: []float64{0.5, 0.5}})
	}
	tree.nodes = append(tree.nodes, node{feature: -1, probs: []float64{1, 0}})
	if _, err := tree.Flatten(); err == nil || !strings.Contains(err.Error(), "256 thresholds") {
		t.Fatalf("Flatten of a feature with %d cuts: err %v", m, err)
	}

	_, ff := fullCutForest(t)
	split := *ff
	split.src = slices.Clone(ff.src)
	split.src[1] = split.src[0]
	if _, err := DecodeFlat(binenc.NewReader(split.AppendBinary(nil)), true); err == nil {
		t.Fatal("decoder accepted two code columns on one feature")
	}
}

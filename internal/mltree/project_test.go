package mltree

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// gatherCols copies columns cols out of n f-wide rows.
func gatherCols(x []float64, n, f int, cols []int) []float64 {
	out := make([]float64, 0, n*len(cols))
	for i := 0; i < n; i++ {
		for _, c := range cols {
			out = append(out, x[i*f+c])
		}
	}
	return out
}

// TestFlattenProjectedMatchesFlatten: an engine compiled against the
// features its learner splits on scores rows holding only those columns
// bit-identically to the full engine on full rows, for every learner.
// 597 rows leave a tail past
// the last 8-lane group and 256-row block.
func TestFlattenProjectedMatchesFlatten(t *testing.T) {
	const rows, f, n = 600, 40, 597
	x, y, eval := flatTestData(101, rows, f)
	poisonRows(eval, f)
	check := func(name string, full, proj *Flat, cols []int) {
		t.Helper()
		for k, c := range cols {
			if c < 0 || c >= f || (k > 0 && c <= cols[k-1]) {
				t.Fatalf("%s: columns %v not strictly ascending in [0, %d)", name, cols, f)
			}
		}
		if len(cols) == 0 {
			t.Fatalf("%s: empty column list", name)
		}
		want := make([]float64, n)
		full.ScoreBatch(eval[:n*f], n, want)
		got := make([]float64, n)
		proj.ScoreBatch(gatherCols(eval, n, f, cols), n, got)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: row %d: projected %v, full %v", name, i, got[i], want[i])
			}
		}
	}
	tree, err := FitTree(x, rows, f, y, nil, 2, TreeConfig(), randx.New(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	ft, cols, err := tree.FlattenProjected()
	if err != nil {
		t.Fatal(err)
	}
	if ft.NumFeatures != len(cols) {
		t.Fatalf("tree: engine reads %d features, cols %d", ft.NumFeatures, len(cols))
	}
	check("tree", mustFlat(t)(tree.Flatten()), ft, cols)

	fcfg := DefaultForestConfig()
	fcfg.NumTrees = 5
	fo, err := FitForest(x, rows, f, y, nil, 2, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	ff, cols, err := fo.FlattenProjected()
	if err != nil {
		t.Fatal(err)
	}
	check("forest", mustFlat(t)(fo.Flatten()), ff, cols)

	gcfg := DefaultGBTConfig()
	gcfg.Rounds = 6
	gcfg.MaxDepth = 2
	g, err := FitGBT(x, rows, f, y, nil, gcfg)
	if err != nil {
		t.Fatal(err)
	}
	fg, cols, err := g.FlattenProjected()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) >= f {
		t.Fatalf("gbt: %d shallow stages read all %d features", gcfg.Rounds, f)
	}
	check("gbt", mustFlat(t)(g.Flatten()), fg, cols)
}

// TestFlattenProjectedLeafOnly: a learner that never splits still gets a
// one-column space, so its engine has a row to read.
func TestFlattenProjectedLeafOnly(t *testing.T) {
	tree := &Tree{nodes: []node{{feature: -1, probs: []float64{0.25, 0.75}}}, NumFeatures: 9, NumClasses: 2}
	ft, cols, err := tree.FlattenProjected()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || cols[0] != 0 || ft.NumFeatures != 1 {
		t.Fatalf("leaf-only tree: cols %v, engine features %d", cols, ft.NumFeatures)
	}
	out := make([]float64, 3)
	ft.ScoreBatch([]float64{5, 6, 7}, 3, out)
	for i, v := range out {
		if v != 0.75 {
			t.Fatalf("row %d scored %v, want 0.75", i, v)
		}
	}
}

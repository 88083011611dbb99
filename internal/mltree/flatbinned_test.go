package mltree

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// poisonRows drops NaNs into a few evaluation rows: the quantizer must
// send them down the walked path's NaN route (right at every node).
func poisonRows(eval []float64, f int) {
	for i := 0; i*f+i < len(eval); i += 17 {
		eval[i*f+i%f] = math.NaN()
	}
}

// TestBinnedTreeMatchesFloat: a hist-trained tree compiles a binned twin
// (though it defaults to the float kernel — quantization can't amortize
// over one tree) and, once opted in, its quantized descent is
// bit-identical to both the walked path and the float-keyed flat path.
func TestBinnedTreeMatchesFloat(t *testing.T) {
	x, y, eval := flatTestData(61, 500, 12)
	poisonRows(eval, 12)
	cfg := TreeConfig()
	cfg.Algo = SplitHist
	tree, err := FitTree(x, 500, 12, y, nil, 2, cfg, randx.New(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !tree.HistTrained() {
		t.Fatal("SplitHist tree not marked hist-trained")
	}
	ft := tree.Flatten()
	if ft.DescentMode() != "float" {
		t.Fatalf("lone tree default descent mode %q, want float", ft.DescentMode())
	}
	ft.SetFloatDescent(false)
	if ft.DescentMode() != "binned" {
		t.Fatalf("opted-in descent mode %q, want binned", ft.DescentMode())
	}
	n := 500
	binned := make([]float64, n)
	ft.ScoreBatch(eval, n, binned)
	ft.SetFloatDescent(true)
	if ft.DescentMode() != "float" {
		t.Fatalf("forced descent mode %q, want float", ft.DescentMode())
	}
	float := make([]float64, n)
	ft.ScoreBatch(eval, n, float)
	ft.SetFloatDescent(false)
	want := make([]float64, 2)
	for i := 0; i < n; i++ {
		tree.PredictProbaInto(eval[i*12:(i+1)*12], want)
		if binned[i] != want[1] || float[i] != want[1] {
			t.Fatalf("row %d: binned %v float %v walked %v", i, binned[i], float[i], want[1])
		}
	}
}

func TestBinnedForestMatchesFloat(t *testing.T) {
	x, y, eval := flatTestData(71, 600, 10)
	poisonRows(eval, 10)
	cfg := DefaultForestConfig()
	cfg.NumTrees = 7
	cfg.Tree.Algo = SplitHist
	fo, err := FitForest(x, 600, 10, y, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ff := fo.Flatten()
	if ff.DescentMode() != "binned" {
		t.Fatalf("hist forest descent mode %q, want binned", ff.DescentMode())
	}
	n := 600
	binned := make([]float64, n)
	ff.ScoreBatch(eval, n, binned)
	ff.SetFloatDescent(true)
	float := make([]float64, n)
	ff.ScoreBatch(eval, n, float)
	ff.SetFloatDescent(false)
	want := make([]float64, 2)
	for i := 0; i < n; i++ {
		fo.PredictProbaInto(eval[i*10:(i+1)*10], want)
		if binned[i] != want[1] || float[i] != want[1] {
			t.Fatalf("row %d: binned %v float %v walked %v", i, binned[i], float[i], want[1])
		}
	}
}

func TestBinnedGBTMatchesFloat(t *testing.T) {
	x, y, eval := flatTestData(81, 600, 8)
	poisonRows(eval, 8)
	cfg := DefaultGBTConfig()
	cfg.Rounds = 15
	cfg.Algo = SplitHist
	g, err := FitGBT(x, 600, 8, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fg := g.Flatten()
	if fg.DescentMode() != "binned" {
		t.Fatalf("hist GBT descent mode %q, want binned", fg.DescentMode())
	}
	n := 600
	raw := make([]float64, n)
	probs := make([]float64, n*2)
	fg.RawBatch(eval, n, raw)
	fg.PredictProbaBatch(eval, n, probs)
	fg.SetFloatDescent(true)
	rawF := make([]float64, n)
	fg.RawBatch(eval, n, rawF)
	fg.SetFloatDescent(false)
	want := make([]float64, 2)
	for i := 0; i < n; i++ {
		row := eval[i*8 : (i+1)*8]
		if got := g.Raw(row); raw[i] != got || rawF[i] != got {
			t.Fatalf("row %d: binned raw %v float %v walked %v", i, raw[i], rawF[i], got)
		}
		g.PredictProbaInto(row, want)
		if probs[i*2] != want[0] || probs[i*2+1] != want[1] {
			t.Fatalf("row %d: binned probs %v walked %v", i, probs[i*2:i*2+2], want)
		}
	}
}

// TestBinnedGBTTailRowsMatchWalked: rows past the last full 8-lane group
// of a block take the scalar tail, which must continue each row's sum
// from its prior exactly as the walked path associates it.
func TestBinnedGBTTailRowsMatchWalked(t *testing.T) {
	x, y, eval := flatTestData(83, 600, 8)
	cfg := DefaultGBTConfig()
	cfg.Rounds = 15
	cfg.Algo = SplitHist
	g, err := FitGBT(x, 600, 8, y, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fg := g.Flatten()
	if fg.DescentMode() != "binned" {
		t.Fatalf("hist GBT descent mode %q, want binned", fg.DescentMode())
	}
	const n = 263 // one full 256-row block, then 7 tail rows
	raw := make([]float64, n)
	fg.RawBatch(eval[:n*8], n, raw)
	for i := 0; i < n; i++ {
		if got := g.Raw(eval[i*8 : (i+1)*8]); raw[i] != got {
			t.Fatalf("row %d: binned raw %v walked %v", i, raw[i], got)
		}
	}
}

// TestBinnedExactTreeStaysFloat: exact-trained models never compile a
// binned twin (their thresholds need the full float total order).
func TestBinnedExactTreeStaysFloat(t *testing.T) {
	x, y, _ := flatTestData(91, 300, 6)
	cfg := TreeConfig()
	cfg.Algo = SplitExact
	tree, err := FitTree(x, 300, 6, y, nil, 2, cfg, randx.New(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	if tree.HistTrained() {
		t.Fatal("exact tree marked hist-trained")
	}
	if mode := tree.Flatten().DescentMode(); mode != "float" {
		t.Fatalf("exact tree descent mode %q, want float", mode)
	}
}

// TestBinnedChunkEquality: binned scoring in odd chunk sizes (which force
// the float scalar tail for trailing rows) writes exactly the bytes of
// the one-shot batch.
func TestBinnedChunkEquality(t *testing.T) {
	x, y, eval := flatTestData(101, 300, 9)
	poisonRows(eval, 9)
	cfg := DefaultForestConfig()
	cfg.NumTrees = 5
	cfg.Tree.Algo = SplitHist
	fo, err := FitForest(x, 300, 9, y, nil, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ff := fo.Flatten()
	if ff.DescentMode() != "binned" {
		t.Fatal("expected binned mode")
	}
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

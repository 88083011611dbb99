package main

import (
	"context"
	"io"
	"path/filepath"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, the reading the spread rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{0.5, 0.25, 2, 8, 1, 4}, [3]float64{0.4375, 1.5, 5}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestJudgeWithholdsGainWhenHeadFails checks that a head that wins every
// pair is improved only while it fails no more operations than the base
// and passes its correctness checks.
func TestJudgeWithholdsGainWhenHeadFails(t *testing.T) {
	m := specMetric{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1}
	var base, head []float64
	for i := 0; i < 10; i++ {
		base = append(base, 2+0.01*float64(i))
		head = append(head, 1+0.01*float64(i))
	}
	if got := judge(base, head, m, false); got != "improved" {
		t.Fatalf("faster head with no failures: %s, want improved", got)
	}
	if got := judge(base, head, m, true); got != "unresolved" {
		t.Errorf("faster head that fails more: %s, want unresolved", got)
	}
	if got := judge(head, base, m, false); got != "regressed" {
		t.Errorf("slower head: %s, want regressed", got)
	}

	run := func(attempted, failed int64, correct bool) *result {
		return &result{Workload: "serve-hot", Attempted: attempted, Failed: failed, Correct: correct}
	}
	clean := failuresOf([]*result{run(1000, 0, true), run(1000, 0, true)}, "serve-hot")
	for _, c := range []struct {
		name  string
		head  []*result
		worse bool
	}{
		{"same", []*result{run(900, 0, true), run(1100, 0, true)}, false},
		{"sheds", []*result{run(1000, 0, true), run(1000, 3, true)}, true},
		{"wrong answer", []*result{run(1000, 0, true), run(1000, 0, false)}, true},
	} {
		if got := failuresOf(c.head, "serve-hot").worseThan(clean); got != c.worse {
			t.Errorf("%s: worseThan = %t, want %t", c.name, got, c.worse)
		}
	}
	shedding := failuresOf([]*result{run(1000, 10, true)}, "serve-hot")
	if failuresOf([]*result{run(2000, 10, true)}, "serve-hot").worseThan(shedding) {
		t.Error("a smaller failed share counted as worse")
	}
}

// particular lists metrics that only some workloads have, so
// BENCHMARK.json, whose per-layer metrics every traced run reports, cannot
// declare them.
var particular = map[string][]string{
	"serve-hot":     {"p99_ms", "p99_ms_loaded", "slo_rps", "hotserve.request_ms", "hotserve.unattributed_ms"},
	"serve-history": {"p90_ms", "hotserve.request_ms", "hotserve.shed_ratio"},
	"serve-reload":  {"p99_ms", "reload_s", "fit_s", "hotserve.reload_ms"},
	"sweep":         {"records_per_s"},
}

// TestSmokeAllWorkloads runs every workload traced at 150 sectors with
// short phases and checks that each metric BENCHMARK.json declares, and
// each workload's particular metrics, are measured with their units and
// that every answer checked out.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts hotserve for every workload")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := (&options{repo: root}).serverBinary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		o := &options{repo: root, seed: 3, seconds: 1, trace: true, sectors: 150, bin: bin}
		res, err := runWorkload(context.Background(), o, w, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: correct %t, %d of %d ops failed: %v", w, res.Correct, res.Failed, res.Attempted, res.checkErr)
		}
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			got, ok := res.Metrics[m.Name]
			if !ok {
				t.Errorf("%s: %s not measured", w, m.Name)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: %s in %s, BENCHMARK.json says %s", w, m.Name, got.Unit, m.Unit)
			}
		}
		for _, name := range particular[w] {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s: %s not measured", w, name)
			}
		}
	}
}

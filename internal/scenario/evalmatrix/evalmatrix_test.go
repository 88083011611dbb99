package evalmatrix

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
)

func tinyConfig() Config {
	return Config{
		Packs:         []scenario.Pack{scenario.Baseline(), scenario.OutageWavePack()},
		Models:        []core.ModelKind{core.Random, core.Average, core.Trend},
		Sectors:       120,
		Weeks:         8,
		Seed:          3,
		TCount:        2,
		Hs:            []int{1, 5},
		W:             7,
		TrainDays:     3,
		ForestTrees:   4,
		RandomRepeats: 2,
	}
}

// TestRunShape checks the matrix covers every (pack, model) cell in
// pack-major order with sane aggregates.
func TestRunShape(t *testing.T) {
	cfg := tinyConfig()
	m, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != Schema || m.Kind != "scenario-matrix" {
		t.Fatalf("bad header: schema=%d kind=%q", m.Schema, m.Kind)
	}
	if len(m.Packs) != 2 || len(m.Models) != 3 {
		t.Fatalf("got %d packs, %d models", len(m.Packs), len(m.Models))
	}
	if len(m.Cells) != len(m.Packs)*len(m.Models) {
		t.Fatalf("got %d cells, want %d", len(m.Cells), len(m.Packs)*len(m.Models))
	}
	i := 0
	for _, p := range m.Packs {
		for _, name := range m.Models {
			c := m.Cells[i]
			if c.Pack != p.Name || c.Model != name {
				t.Fatalf("cell[%d] = (%s, %s), want (%s, %s)", i, c.Pack, c.Model, p.Name, name)
			}
			if c.Points+c.NaNPoints != len(m.Ts)*len(m.Hs) {
				t.Fatalf("cell[%d] covers %d+%d points, want %d", i, c.Points, c.NaNPoints, len(m.Ts)*len(m.Hs))
			}
			if c.Points > 0 && (c.MeanPsi < 0 || c.MeanPsi > 1) {
				t.Fatalf("cell[%d] mean psi %v out of [0,1]", i, c.MeanPsi)
			}
			i++
		}
	}
	// The outage pack documents its overlay's declared label perturbation.
	if len(m.Packs[1].Overlays) != 1 || m.Packs[1].Overlays[0].LabelEffect == "" {
		t.Fatalf("outage pack info lacks overlay label effect: %+v", m.Packs[1])
	}
}

// TestRunDeterministic: two runs of the same configuration must agree
// exactly, including every float.
func TestRunDeterministic(t *testing.T) {
	a, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("matrix runs differ for identical configuration")
	}
}

// TestJSONRoundTripAndSchemaCompare: the artifact must survive a JSON
// round trip, match its own schema, and CompareSchema must catch shape
// drift.
func TestJSONRoundTripAndSchemaCompare(t *testing.T) {
	m, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if err := CompareSchema(m, &back); err != nil {
		t.Fatalf("self-compare failed: %v", err)
	}

	drop := back
	drop.Models = back.Models[:2]
	if err := CompareSchema(m, &drop); err == nil {
		t.Fatal("model-list drift not caught")
	}
	reorder := back
	reorder.Packs = append([]PackInfo{}, back.Packs...)
	reorder.Packs[0], reorder.Packs[1] = reorder.Packs[1], reorder.Packs[0]
	if err := CompareSchema(m, &reorder); err == nil {
		t.Fatal("pack-order drift not caught")
	}
	bumped := back
	bumped.Schema++
	if err := CompareSchema(m, &bumped); err == nil {
		t.Fatal("schema-version drift not caught")
	}
}

// TestCompareValuesBand: a cell passes at most the baseline's band away on
// either metric and fails past it, every failing cell is named, and a
// baseline without a band demands exact equality.
func TestCompareValuesBand(t *testing.T) {
	want := &Matrix{Band: &Band{Psi: 0.02, Lift: 0.5}, Cells: []Cell{
		{Pack: "baseline", Model: "Tree", MeanPsi: 0.44, MeanLift: 12.5},
		{Pack: "baseline", Model: "RF-F1", MeanPsi: 0.60, MeanLift: 9.0},
	}}
	got := &Matrix{Cells: append([]Cell(nil), want.Cells...)}
	got.Cells[0].MeanPsi += 0.015
	got.Cells[1].MeanLift -= 0.4
	if err := CompareValues(got, want); err != nil {
		t.Fatalf("in-band drift rejected: %v", err)
	}
	got.Cells[0].MeanLift = 11.61
	got.Cells[1].MeanPsi = 0.5
	err := CompareValues(got, want)
	if err == nil {
		t.Fatal("out-of-band cells accepted")
	}
	for _, cell := range []string{"(baseline, Tree) mean_lift", "(baseline, RF-F1) mean_psi"} {
		if !strings.Contains(err.Error(), cell) {
			t.Fatalf("error does not name %s: %v", cell, err)
		}
	}
	exact := &Matrix{Cells: want.Cells}
	if err := CompareValues(want, exact); err != nil {
		t.Fatalf("identical cells rejected without a band: %v", err)
	}
	nudged := &Matrix{Cells: append([]Cell(nil), want.Cells...)}
	nudged.Cells[1].MeanPsi += 1e-12
	if err := CompareValues(nudged, exact); err == nil {
		t.Fatal("a baseline without a band accepted a changed value")
	}
}

// TestTsFeasibility: the sampled forecast days must respect history and
// evaluation-day bounds, and infeasible grids must fail loudly.
func TestTsFeasibility(t *testing.T) {
	cfg := tinyConfig()
	ts, err := cfg.ts(56)
	if err != nil {
		t.Fatal(err)
	}
	maxH := 5
	for _, tt := range ts {
		if tt-maxH-cfg.W-(cfg.TrainDays-1) < 0 || tt+maxH >= 56 {
			t.Fatalf("infeasible t=%d for 56 days", tt)
		}
	}
	if _, err := cfg.ts(10); err == nil {
		t.Fatal("10-day grid accepted")
	}
}

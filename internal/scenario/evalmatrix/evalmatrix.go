// Package evalmatrix is the scenario-robustness harness: it runs every
// model through every adversarial scenario pack using the existing sweep
// machinery and aggregates the records into a per-(model, scenario) metric
// matrix, emitted as a JSON artifact (benchjson-style, with a committed
// baseline) so scenario robustness gets the same CI trajectory as training
// performance.
package evalmatrix

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

// Schema is the artifact schema version; bump it whenever the JSON layout
// changes shape (CI diffs the schema of a fresh matrix against the
// committed baseline).
const Schema = 1

// AllModelKinds lists every model the matrix evaluates by default, in
// Table III order plus the GBT extension.
func AllModelKinds() []core.ModelKind {
	return []core.ModelKind{
		core.Random, core.Persist, core.Average, core.Trend,
		core.Tree, core.RFR, core.RFF1, core.RFF2, core.GBTF1,
	}
}

// Config selects the packs, models and evaluation grid of one matrix run.
type Config struct {
	// Packs are the scenario packs to evaluate (default: every builtin).
	Packs []scenario.Pack
	// Models are the model kinds to evaluate (default: AllModelKinds).
	Models []core.ModelKind
	// Sectors, Weeks and Seed configure the underlying generator.
	Sectors int
	Weeks   int
	Seed    uint64
	// TCount forecast days are spread evenly over the feasible t range.
	TCount int
	// Hs are the forecast horizons; W the feature window.
	Hs []int
	W  int
	// TrainDays, ForestTrees and RandomRepeats tune the models/evaluation.
	TrainDays     int
	ForestTrees   int
	RandomRepeats int
	// Workers bounds sweep parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultConfig returns a small but non-trivial matrix configuration
// (about a minute of CPU for all packs x all models).
func DefaultConfig() Config {
	return Config{
		Packs:         scenario.BuiltinPacks(),
		Models:        AllModelKinds(),
		Sectors:       200,
		Weeks:         10,
		Seed:          1,
		TCount:        2,
		Hs:            []int{1, 5},
		W:             7,
		TrainDays:     3,
		ForestTrees:   4,
		RandomRepeats: 2,
	}
}

// ts spreads TCount forecast days evenly across the feasible range for the
// grid: t needs h+w+TrainDays-1 days of history and day t+h inside the
// grid.
func (cfg Config) ts(days int) ([]int, error) {
	maxH := 0
	for _, h := range cfg.Hs {
		if h > maxH {
			maxH = h
		}
	}
	lo := maxH + cfg.W + cfg.TrainDays - 1
	hi := days - maxH - 1
	if hi < lo {
		return nil, fmt.Errorf("evalmatrix: %d days cannot host h<=%d, w=%d, %d train days (feasible t range [%d,%d])",
			days, maxH, cfg.W, cfg.TrainDays, lo, hi)
	}
	count := cfg.TCount
	if count < 1 {
		count = 1
	}
	if count > hi-lo+1 {
		count = hi - lo + 1
	}
	out := make([]int, 0, count)
	seen := map[int]bool{}
	for i := 0; i < count; i++ {
		t := hi
		if count > 1 {
			t = lo + i*(hi-lo)/(count-1)
		}
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out, nil
}

// Cell is one (pack, model) aggregate over the evaluation grid. Means are
// taken over grid points with positive labels (Points); grid points whose
// evaluation day has no positives are counted in NaNPoints and excluded
// (so a matrix stays JSON-encodable — JSON has no NaN). A cell with
// Points == 0 has all means zero.
type Cell struct {
	Pack          string  `json:"pack"`
	Model         string  `json:"model"`
	MeanPsi       float64 `json:"mean_psi"`
	MeanPsiRandom float64 `json:"mean_psi_random"`
	MeanLift      float64 `json:"mean_lift"`
	Points        int     `json:"points"`
	NaNPoints     int     `json:"nan_points"`
	Positives     int     `json:"positives"`
}

// OverlayInfo documents one overlay of a pack, including its declared
// ground-truth label perturbation.
type OverlayInfo struct {
	Name        string `json:"name"`
	LabelEffect string `json:"label_effect"`
}

// PackInfo documents one evaluated pack.
type PackInfo struct {
	Name     string        `json:"name"`
	Desc     string        `json:"desc"`
	Overlays []OverlayInfo `json:"overlays,omitempty"`
	// Discarded is how many sectors the missing-data filter dropped under
	// this pack (missing-heavy packs discard more).
	Discarded int `json:"discarded"`
	// Sectors is the evaluated sector count after filtering.
	Sectors int `json:"sectors"`
}

// Band is the value gate's tolerance. A cell passes when its mean_psi and
// mean_lift each differ from the baseline cell's by at most the band's
// field of the same name. It lives in the committed baseline, so widening
// a gate is a visible edit to data, not to code; a baseline without one
// gates at zero width, i.e. exact equality.
type Band struct {
	Psi  float64 `json:"mean_psi"`
	Lift float64 `json:"mean_lift"`
}

// Matrix is the evaluation-matrix artifact.
type Matrix struct {
	Schema        int        `json:"schema"`
	Kind          string     `json:"kind"` // always "scenario-matrix"
	Target        string     `json:"target"`
	Sectors       int        `json:"sectors"`
	Weeks         int        `json:"weeks"`
	Seed          uint64     `json:"seed"`
	Ts            []int      `json:"ts"`
	Hs            []int      `json:"hs"`
	W             int        `json:"w"`
	TrainDays     int        `json:"train_days"`
	ForestTrees   int        `json:"forest_trees"`
	RandomRepeats int        `json:"random_repeats"`
	Models        []string   `json:"models"`
	Packs         []PackInfo `json:"packs"`
	// Cells hold one aggregate per (pack, model), pack-major in Packs x
	// Models order.
	Cells []Cell `json:"cells"`
	// Band is the tolerance CompareValues applies when this matrix is the
	// baseline.
	Band *Band `json:"band,omitempty"`
}

// cellAccum folds sweep records for one model.
type cellAccum struct {
	psi, psiRandom, lift float64
	points, nanPoints    int
	positives            int
}

// Run evaluates every configured model on every configured pack. Packs are
// processed sequentially (each holds its own dataset); the sweep inside a
// pack parallelises across grid points. The result is deterministic in the
// configuration.
func Run(cfg Config) (*Matrix, error) {
	if len(cfg.Packs) == 0 {
		cfg.Packs = scenario.BuiltinPacks()
	}
	if len(cfg.Models) == 0 {
		cfg.Models = AllModelKinds()
	}
	m := &Matrix{
		Schema:        Schema,
		Kind:          "scenario-matrix",
		Target:        forecast.BeHot.String(),
		Sectors:       cfg.Sectors,
		Weeks:         cfg.Weeks,
		Seed:          cfg.Seed,
		Hs:            cfg.Hs,
		W:             cfg.W,
		TrainDays:     cfg.TrainDays,
		ForestTrees:   cfg.ForestTrees,
		RandomRepeats: cfg.RandomRepeats,
	}
	models := make([]forecast.Model, 0, len(cfg.Models))
	for _, kind := range cfg.Models {
		mod, err := core.NewModel(kind)
		if err != nil {
			return nil, err
		}
		models = append(models, mod)
		m.Models = append(m.Models, mod.Name())
	}

	for _, pack := range cfg.Packs {
		gen := simnet.DefaultConfig()
		gen.Seed = cfg.Seed
		gen.Sectors = cfg.Sectors
		gen.Weeks = cfg.Weeks
		ds, err := scenario.Generate(gen, pack)
		if err != nil {
			return nil, err
		}
		p, err := core.FromDataset(ds, core.Config{
			Seed:        cfg.Seed,
			TrainDays:   cfg.TrainDays,
			ForestTrees: cfg.ForestTrees,
		})
		if err != nil {
			return nil, fmt.Errorf("evalmatrix: pack %s: %w", pack.Name, err)
		}
		// Matrix grids hold many points; make the sweep pool the parallelism
		// lever, as the experiment runners do.
		p.Ctx.FitWorkers = 1

		ts, err := cfg.ts(p.Days())
		if err != nil {
			return nil, fmt.Errorf("evalmatrix: pack %s: %w", pack.Name, err)
		}
		if m.Ts == nil {
			m.Ts = ts
		}

		info := PackInfo{Name: pack.Name, Desc: pack.Desc, Discarded: p.Discarded, Sectors: p.Sectors()}
		for _, ov := range pack.Overlays {
			info.Overlays = append(info.Overlays, OverlayInfo{Name: ov.Name(), LabelEffect: ov.LabelEffect()})
		}
		m.Packs = append(m.Packs, info)

		accum := map[string]*cellAccum{}
		for _, name := range m.Models {
			accum[name] = &cellAccum{}
		}
		sweep := forecast.SweepConfig{
			Models:        models,
			Target:        forecast.BeHot,
			Ts:            ts,
			Hs:            cfg.Hs,
			Ws:            []int{cfg.W},
			RandomRepeats: cfg.RandomRepeats,
			Workers:       cfg.Workers,
		}
		if err := forecast.SweepStream(p.Ctx, sweep, func(rec forecast.Record) error {
			a := accum[rec.Model]
			if math.IsNaN(rec.Psi) {
				a.nanPoints++
				return nil
			}
			a.psi += rec.Psi
			a.psiRandom += rec.PsiRandom
			if !math.IsNaN(rec.Lift) {
				a.lift += rec.Lift
			}
			a.points++
			a.positives += rec.Positives
			return nil
		}); err != nil {
			return nil, fmt.Errorf("evalmatrix: pack %s: %w", pack.Name, err)
		}

		for _, name := range m.Models {
			a := accum[name]
			cell := Cell{Pack: pack.Name, Model: name, Points: a.points, NaNPoints: a.nanPoints, Positives: a.positives}
			if a.points > 0 {
				cell.MeanPsi = a.psi / float64(a.points)
				cell.MeanPsiRandom = a.psiRandom / float64(a.points)
				cell.MeanLift = a.lift / float64(a.points)
			}
			m.Cells = append(m.Cells, cell)
		}
	}
	return m, nil
}

// WriteJSON writes the matrix as indented JSON.
func (m *Matrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// ReadFile loads a matrix artifact from disk.
func ReadFile(path string) (*Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Matrix
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("evalmatrix: %s: %w", path, err)
	}
	return &m, nil
}

// CompareSchema checks that got has the same shape as want: schema
// version, kind, model list, pack list, and the (pack, model) cell
// structure. CompareValues gates the cells' metric values.
func CompareSchema(got, want *Matrix) error {
	if got.Schema != want.Schema {
		return fmt.Errorf("evalmatrix: schema %d != baseline %d", got.Schema, want.Schema)
	}
	if got.Kind != want.Kind {
		return fmt.Errorf("evalmatrix: kind %q != baseline %q", got.Kind, want.Kind)
	}
	if len(got.Models) != len(want.Models) {
		return fmt.Errorf("evalmatrix: %d models != baseline %d", len(got.Models), len(want.Models))
	}
	for i, name := range got.Models {
		if name != want.Models[i] {
			return fmt.Errorf("evalmatrix: model[%d] = %q != baseline %q", i, name, want.Models[i])
		}
	}
	if len(got.Packs) != len(want.Packs) {
		return fmt.Errorf("evalmatrix: %d packs != baseline %d", len(got.Packs), len(want.Packs))
	}
	for i, p := range got.Packs {
		if p.Name != want.Packs[i].Name {
			return fmt.Errorf("evalmatrix: pack[%d] = %q != baseline %q", i, p.Name, want.Packs[i].Name)
		}
	}
	if len(got.Cells) != len(want.Cells) {
		return fmt.Errorf("evalmatrix: %d cells != baseline %d", len(got.Cells), len(want.Cells))
	}
	for i, c := range got.Cells {
		if c.Pack != want.Cells[i].Pack || c.Model != want.Cells[i].Model {
			return fmt.Errorf("evalmatrix: cell[%d] = (%s, %s) != baseline (%s, %s)",
				i, c.Pack, c.Model, want.Cells[i].Pack, want.Cells[i].Model)
		}
	}
	return nil
}

// CompareValues checks every cell of got against the same cell of want,
// whose shape must already match (CompareSchema): mean_psi and mean_lift
// must each lie within want's Band. Values are deterministic for a fixed
// build; the band only absorbs float drift across compilers and platforms
// (FMA fusion), so a model that loses forecast quality leaves it. Every
// cell outside the band is reported.
func CompareValues(got, want *Matrix) error {
	band := Band{}
	if want.Band != nil {
		band = *want.Band
	}
	var errs []error
	for i, c := range got.Cells {
		w := want.Cells[i]
		if d := math.Abs(c.MeanPsi - w.MeanPsi); !(d <= band.Psi) {
			errs = append(errs, fmt.Errorf("evalmatrix: (%s, %s) mean_psi %.4f, baseline %.4f: outside band %g",
				c.Pack, c.Model, c.MeanPsi, w.MeanPsi, band.Psi))
		}
		if d := math.Abs(c.MeanLift - w.MeanLift); !(d <= band.Lift) {
			errs = append(errs, fmt.Errorf("evalmatrix: (%s, %s) mean_lift %.3f, baseline %.3f: outside band %g",
				c.Pack, c.Model, c.MeanLift, w.MeanLift, band.Lift))
		}
	}
	return errors.Join(errs...)
}

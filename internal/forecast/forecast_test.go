package forecast

import (
	"math"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/score"
	"repro/internal/simnet"
)

// testContext builds a small scored context shared across tests.
func testContext(t testing.TB, sectors, weeks int, seed uint64) *Context {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Seed = seed
	cfg.Sectors = sectors
	cfg.Weeks = weeks
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keep := score.FilterSectors(ds.K, 0.5)
	sub := ds.SelectSectors(keep)
	set := score.Compute(sub.K, score.DefaultWeighting())
	ctx, err := NewContext(sub.K, sub.Grid.Calendar(), set, seed)
	if err != nil {
		t.Fatal(err)
	}
	ctx.TrainDays = 3
	ctx.ForestTrees = 8
	return ctx
}

func TestCheckTask(t *testing.T) {
	c := testContext(t, 60, 6, 1)
	if err := c.CheckTask(20, 5, 7); err != nil {
		t.Fatalf("valid task rejected: %v", err)
	}
	if err := c.CheckTask(5, 5, 7); err == nil {
		t.Fatal("task without history accepted")
	}
	if err := c.CheckTask(40, 5, 7); err == nil {
		t.Fatal("task beyond grid accepted")
	}
	if err := c.CheckTask(20, 0, 7); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if err := c.CheckTask(20, 5, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestBaselineForecastShapes(t *testing.T) {
	c := testContext(t, 60, 6, 2)
	for _, m := range Baselines() {
		scores, err := m.Forecast(c, BeHot, 20, 3, 7)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(scores) != c.Sectors() {
			t.Fatalf("%s: %d scores for %d sectors", m.Name(), len(scores), c.Sectors())
		}
		for i, v := range scores {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: non-finite score at %d", m.Name(), i)
			}
		}
	}
}

func TestPersistCopiesCurrentLabels(t *testing.T) {
	c := testContext(t, 60, 6, 3)
	scores, err := (PersistModel{}).Forecast(c, BeHot, 20, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scores {
		if scores[i] != c.YdHot.At(i, 20) {
			t.Fatal("Persist should copy the current label")
		}
	}
}

func TestAverageMatchesMu(t *testing.T) {
	c := testContext(t, 60, 6, 4)
	scores, err := (AverageModel{}).Forecast(c, BeHot, 20, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	want := score.Mu(20, 7, c.Sd.Row(5))
	if math.IsNaN(want) {
		want = 0
	}
	if scores[5] != want {
		t.Fatalf("Average[5] = %v, want %v", scores[5], want)
	}
}

func TestTrendDegeneratesToAverageForW1(t *testing.T) {
	c := testContext(t, 60, 6, 5)
	tr, err := (TrendModel{}).Forecast(c, BeHot, 20, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	av, err := (AverageModel{}).Forecast(c, BeHot, 20, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr {
		if tr[i] != av[i] {
			t.Fatal("Trend with w=1 should equal Average")
		}
	}
}

func TestRandomModelDeterministicPerPoint(t *testing.T) {
	c := testContext(t, 60, 6, 6)
	a, _ := (RandomModel{}).Forecast(c, BeHot, 20, 3, 7)
	b, _ := (RandomModel{}).Forecast(c, BeHot, 20, 3, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random model should be deterministic per (seed, t, h)")
		}
	}
	other, _ := (RandomModel{}).Forecast(c, BeHot, 21, 3, 7)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
		}
	}
	if same {
		t.Fatal("Random model should differ across t")
	}
}

func TestClassifierForecastRuns(t *testing.T) {
	c := testContext(t, 100, 8, 7)
	for _, m := range []Model{NewTreeModel(), NewRFF1()} {
		scores, err := m.Forecast(c, BeHot, 30, 2, 5)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if len(scores) != c.Sectors() {
			t.Fatalf("%s: wrong score count", m.Name())
		}
		for _, v := range scores {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("%s: probability %v out of [0,1]", m.Name(), v)
			}
		}
	}
}

func TestClassifierBeatsRandomOnHotTask(t *testing.T) {
	c := testContext(t, 200, 10, 8)
	cfg := SweepConfig{
		Models:        []Model{RandomModel{}, AverageModel{}, NewRFF1()},
		Target:        BeHot,
		Ts:            []int{40, 45},
		Hs:            []int{1, 7},
		Ws:            []int{7},
		RandomRepeats: 5,
	}
	res, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lifts := res.LiftsByModelH(7)
	mean := func(model string, h int) float64 {
		xs := lifts[model][h]
		s := 0.0
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	if rf := mean("RF-F1", 1); rf < 3 {
		t.Fatalf("RF-F1 lift at h=1 = %v, want clearly above random", rf)
	}
	if rnd := mean("Random", 1); rnd < 0.3 || rnd > 3 {
		t.Fatalf("Random lift = %v, want ~1", rnd)
	}
}

func TestSweepValidation(t *testing.T) {
	c := testContext(t, 60, 6, 9)
	if _, err := Sweep(c, SweepConfig{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := Sweep(c, SweepConfig{Models: []Model{RandomModel{}}, Ts: []int{2}, Hs: []int{1}, Ws: []int{7}, RandomRepeats: 1}); err == nil {
		t.Fatal("invalid grid point accepted")
	}
	valid := SweepConfig{Models: []Model{RandomModel{}}, Ts: []int{20}, Hs: []int{1}, Ws: []int{7}, RandomRepeats: 1}
	if _, err := Sweep(c, valid); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// RandomRepeats < 1 used to be silently clamped to 1; it is now an
	// explicit error (the chance-level psi would be undefined).
	bad := valid
	bad.RandomRepeats = 0
	if _, err := Sweep(c, bad); err == nil || !strings.Contains(err.Error(), "RandomRepeats") {
		t.Fatalf("RandomRepeats=0 accepted (err=%v)", err)
	}
	// Duplicate grid values double-count points in every aggregation.
	for _, tc := range []struct {
		name string
		mut  func(*SweepConfig)
	}{
		{"t", func(s *SweepConfig) { s.Ts = []int{20, 20} }},
		{"h", func(s *SweepConfig) { s.Hs = []int{1, 2, 1} }},
		{"w", func(s *SweepConfig) { s.Ws = []int{7, 7} }},
	} {
		dup := valid
		tc.mut(&dup)
		if _, err := Sweep(c, dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Fatalf("duplicate %s accepted (err=%v)", tc.name, err)
		}
	}
}

func TestSweepRecordsComplete(t *testing.T) {
	c := testContext(t, 80, 8, 10)
	cfg := SweepConfig{
		Models:        Baselines(),
		Target:        BeHot,
		Ts:            []int{25, 30},
		Hs:            []int{1, 5},
		Ws:            []int{3, 7},
		RandomRepeats: 2,
	}
	res, err := Sweep(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * 2 * 2 * 2
	if len(res.Records) != want {
		t.Fatalf("records = %d, want %d", len(res.Records), want)
	}
	for _, rec := range res.Records {
		if rec.Positives > 0 && (math.IsNaN(rec.Psi) || rec.Psi <= 0) {
			t.Fatalf("record %+v has invalid psi", rec)
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	mk := func() *Result {
		c := testContext(t, 80, 8, 11)
		res, err := Sweep(c, SweepConfig{
			Models:        []Model{RandomModel{}, AverageModel{}},
			Target:        BeHot,
			Ts:            []int{25},
			Hs:            []int{1, 3},
			Ws:            []int{7},
			RandomRepeats: 3,
			Workers:       4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if len(a.Records) != len(b.Records) {
		t.Fatal("record counts differ")
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.Model != rb.Model || ra.T != rb.T || ra.H != rb.H {
			t.Fatal("record order not deterministic")
		}
		if !eqNaN(ra.Psi, rb.Psi) || !eqNaN(ra.Lift, rb.Lift) {
			t.Fatalf("psi/lift not deterministic: %+v vs %+v", ra, rb)
		}
	}
}

func eqNaN(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func TestBecomeTargetSweepRuns(t *testing.T) {
	c := testContext(t, 300, 12, 12)
	// Become events are sparse at reproduction scale: aim the sweep at days
	// that actually hold positives (h=1, so t = eventDay - 1).
	var ts []int
	for j := 30; j < c.Days()-2 && len(ts) < 3; j++ {
		pos := 0
		for i := 0; i < c.Sectors(); i++ {
			if c.YdBecome.At(i, j) > 0 {
				pos++
			}
		}
		if pos > 0 {
			ts = append(ts, j-1)
		}
	}
	if len(ts) == 0 {
		t.Fatal("no become events anywhere in a 300-sector, 12-week dataset; generator calibration off")
	}
	res, err := Sweep(c, SweepConfig{
		Models:        []Model{AverageModel{}, PersistModel{}},
		Target:        BecomeHot,
		Ts:            ts,
		Hs:            []int{1},
		Ws:            []int{7},
		RandomRepeats: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Some points may have zero positives (NaN); at least some should not.
	valid := 0
	for _, rec := range res.Records {
		if !math.IsNaN(rec.Psi) {
			valid++
		}
	}
	if valid == 0 {
		t.Fatal("no valid become-hot evaluation points; generator calibration off")
	}
}

func TestClassifierFallbackOnDegenerateLabels(t *testing.T) {
	// A context whose labels are all zero at the training day must fall
	// back to the Average ranking, not error.
	c := testContext(t, 60, 8, 13)
	// Become labels are sparse; pick a t where no event occurs.
	y := c.YdBecome
	tDay := -1
	for t0 := 25; t0 < 40; t0++ {
		all0 := true
		for d := 0; d < c.TrainDays; d++ {
			for i := 0; i < c.Sectors(); i++ {
				if y.At(i, t0-d) > 0 {
					all0 = false
				}
			}
		}
		if all0 {
			tDay = t0
			break
		}
	}
	if tDay < 0 {
		t.Skip("no all-zero training day found")
	}
	m := NewRFF1()
	scores, err := m.Forecast(c, BecomeHot, tDay, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	av, _ := (AverageModel{}).Forecast(c, BecomeHot, tDay, 2, 5)
	for i := range scores {
		if scores[i] != av[i] {
			t.Fatal("degenerate training should fall back to Average")
		}
	}
}

func TestLastImportancesPopulated(t *testing.T) {
	c := testContext(t, 100, 8, 14)
	m := NewRFR()
	if _, err := m.Forecast(c, BeHot, 30, 2, 3); err != nil {
		t.Fatal(err)
	}
	if m.LastImportances == nil {
		t.Fatal("importances not recorded")
	}
	width := m.Extractor.Width(c.View, 3)
	if len(m.LastImportances) != width {
		t.Fatalf("importances length = %d, want %d", len(m.LastImportances), width)
	}
	sum := 0.0
	for _, v := range m.LastImportances {
		sum += v
	}
	if sum <= 0 {
		t.Fatal("importances all zero")
	}
}

func TestPaperGrid(t *testing.T) {
	ts, hs, ws := PaperGrid()
	if len(ts) != 36 || ts[0] != 52 || ts[35] != 87 {
		t.Fatalf("t grid wrong: %v", ts)
	}
	if len(hs) != 15 || hs[0] != 1 || hs[14] != 29 {
		t.Fatalf("h grid wrong: %v", hs)
	}
	if len(ws) != 8 || ws[0] != 1 || ws[7] != 21 {
		t.Fatalf("w grid wrong: %v", ws)
	}
}

func TestAllModelsCount(t *testing.T) {
	if len(AllModels()) != 8 {
		t.Fatalf("models = %d, want 8 (Table III)", len(AllModels()))
	}
	names := map[string]bool{}
	for _, m := range AllModels() {
		names[m.Name()] = true
	}
	for _, want := range []string{"Random", "Persist", "Average", "Trend", "Tree", "RF-R", "RF-F1", "RF-F2"} {
		if !names[want] {
			t.Fatalf("missing model %s", want)
		}
	}
}

// TestDatasetFingerprintIndexedMatchesClone: a context over a K whose
// sectors were selected by row index has the fingerprint and builds the
// feature matrices, bit for bit, of a context over a compacted Clone of
// the same K.
func TestDatasetFingerprintIndexedMatchesClone(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Seed, cfg.Sectors, cfg.Weeks = 5, 40, 6
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var keep []int
	for i := 0; i < ds.N(); i++ {
		if i%3 != 1 {
			keep = append(keep, i)
		}
	}
	stored := len(ds.K.Data)
	sub := ds.SelectSectors(keep)
	if len(sub.K.Data) != stored {
		t.Fatal("selection compacted K instead of indexing it")
	}
	set := score.Compute(sub.K, score.DefaultWeighting())
	indexed, err := NewContext(sub.K, sub.Grid.Calendar(), set, 5)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewContext(sub.K.Clone(), sub.Grid.Calendar(), set, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := indexed.DatasetFingerprint(), dense.DatasetFingerprint(); a != b {
		t.Fatalf("fingerprint %016x indexed, %016x over the Clone", a, b)
	}
	for _, ex := range []features.Extractor{features.Raw{}, features.Percentiles{}, features.HandCrafted{}} {
		a, err := indexed.FeatureMatrix(ex, 30, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dense.FeatureMatrix(ex, 30, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Data) != len(b.Data) {
			t.Fatalf("%s: %d values indexed, %d over the Clone", ex.Name(), len(a.Data), len(b.Data))
		}
		for i := range a.Data {
			if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
				t.Fatalf("%s: feature %d differs: %v indexed, %v over the Clone", ex.Name(), i, a.Data[i], b.Data[i])
			}
		}
	}
}

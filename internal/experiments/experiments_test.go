package experiments

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/forecast"
	"repro/internal/tensor"
)

// sharedEnv is prepared once; descriptive experiments are cheap on it.
var sharedEnv *Env

func getEnv(t *testing.T) *Env {
	t.Helper()
	if sharedEnv != nil {
		return sharedEnv
	}
	s := SmallScale()
	env, err := Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	sharedEnv = env
	return env
}

// sharedTinyEnv backs the -short forecasting tests: big enough to exercise
// the sweep engine end to end, too small for the paper's shape results.
var sharedTinyEnv *Env

func getTinyEnv(t *testing.T) *Env {
	t.Helper()
	if sharedTinyEnv != nil {
		return sharedTinyEnv
	}
	env, err := Prepare(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	sharedTinyEnv = env
	return env
}

// TestEnvDerivesLabelsOnce: the hourly and weekly labels the figures read
// are Labels(Sh) and Labels(Sw), derived once per Env: every caller,
// concurrent ones included, gets the same matrix.
func TestEnvDerivesLabelsOnce(t *testing.T) {
	env, err := Prepare(TinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		get    func() *tensor.Matrix
		scores *tensor.Matrix
	}{{"hourly", env.HourlyLabels, env.Set.Sh}, {"weekly", env.WeeklyLabels, env.Set.Sw}} {
		got := make([]*tensor.Matrix, 4)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = c.get()
			}(i)
		}
		wg.Wait()
		for _, m := range got[1:] {
			if m != got[0] {
				t.Fatalf("%s labels derived more than once", c.name)
			}
		}
		want := env.Set.Weighting.Labels(c.scores)
		if !reflect.DeepEqual(got[0], want) {
			t.Fatalf("%s labels differ from Labels of the scores", c.name)
		}
	}
}

func TestScaleTs(t *testing.T) {
	s := SmallScale()
	s.TCount = 3
	ts := s.Ts()
	if len(ts) != 3 || ts[0] != 52 || ts[2] != 87 {
		t.Fatalf("Ts = %v", ts)
	}
	s.TCount = 100
	if got := len(s.Ts()); got != 36 {
		t.Fatalf("oversized TCount should clamp to 36, got %d", got)
	}
	s.TCount = 1
	if got := s.Ts(); len(got) != 1 {
		t.Fatalf("TCount=1 gives %v", got)
	}
}

func TestPrepare(t *testing.T) {
	env := getEnv(t)
	if env.Ctx.Sectors() < 200 {
		t.Fatalf("too few sectors after filtering: %d", env.Ctx.Sectors())
	}
	if env.Discarded == 0 {
		t.Log("note: no sectors discarded (bad-sector fraction small at this scale)")
	}
	if env.Ctx.Days() != 126 {
		t.Fatalf("days = %d, want 126", env.Ctx.Days())
	}
}

func TestFig01(t *testing.T) {
	env := getEnv(t)
	res := Fig01KPIExamples(env)
	if res.VoiceSector < 0 || res.DataSector < 0 {
		t.Fatal("sectors not selected")
	}
	if len(res.Voice.Y) != env.Ctx.Days()*24 {
		t.Fatal("series length wrong")
	}
	out := res.Format()
	if !strings.Contains(out, "Fig 1A") || !strings.Contains(out, "Fig 1B") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestFig02(t *testing.T) {
	env := getEnv(t)
	res := Fig02ScoreAndLabel(env)
	if len(res.Sd) != env.Ctx.Days() || len(res.Yd) != env.Ctx.Days() {
		t.Fatal("series lengths wrong")
	}
	if !strings.Contains(res.Format(), "Fig 2A") {
		t.Fatal("format missing panel A")
	}
}

func TestFig03(t *testing.T) {
	env := getEnv(t)
	res := Fig03LabelRaster(env)
	if res.Sectors == 0 || res.Days != 126 {
		t.Fatalf("raster = %+v", res)
	}
	if res.HotFraction <= 0 || res.HotFraction > 0.3 {
		t.Fatalf("hot fraction = %v, implausible", res.HotFraction)
	}
	if len(res.RowsSample) == 0 {
		t.Fatal("no sample rows")
	}
}

func TestFig04NaturalThreshold(t *testing.T) {
	env := getEnv(t)
	res := Fig04ScoreHistogram(env)
	if !res.ValleyNearThreshold {
		t.Fatal("weekly-score histogram has no valley near 0.6 (Fig 4 shape lost)")
	}
	sum := 0.0
	for _, v := range res.RelCounts {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("histogram mass = %v", sum)
	}
}

func TestFig06Shapes(t *testing.T) {
	env := getEnv(t)
	res := Fig06HotSpotHistograms(env)
	if res.ModalHours != 16 && res.ModalHours != 24 {
		t.Fatalf("modal hours = %d, want 16 (or 24)", res.ModalHours)
	}
	if res.ModalDays != 1 && res.ModalDays != 7 && res.ModalDays != 5 {
		t.Fatalf("modal days = %d, want small or pattern-driven", res.ModalDays)
	}
}

func TestFig07Shapes(t *testing.T) {
	env := getEnv(t)
	res := Fig07ConsecutiveRuns(env)
	if !res.Peak16h {
		t.Fatal("no 16-hour consecutive-run peak (Fig 7A shape lost)")
	}
}

func TestTab02(t *testing.T) {
	env := getEnv(t)
	res := Tab02WeeklyPatterns(env)
	if len(res.Patterns) < 10 {
		t.Fatalf("too few patterns: %d", len(res.Patterns))
	}
	// Full-week or workweek patterns must rank top-3 as in Table II.
	top3 := res.Patterns[:3]
	found := false
	for _, p := range top3 {
		if p.Mask == 0b1111111 || p.Mask == 0b0011111 || p.Mask == 0b0111111 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no canonical workday pattern in top 3: %+v", top3)
	}
	if res.Consistency.Mean < 0.3 || res.Consistency.Mean > 0.95 {
		t.Fatalf("consistency mean = %v, want near the paper's 0.6", res.Consistency.Mean)
	}
}

func TestFig08(t *testing.T) {
	env := getEnv(t)
	res := Fig08SpatialCorrelation(env)
	if math.IsNaN(res.ZeroDistanceMedianAvg) || res.ZeroDistanceMedianAvg < 0.15 {
		t.Fatalf("distance-0 median avg correlation = %v, want clearly positive", res.ZeroDistanceMedianAvg)
	}
	if math.IsNaN(res.FarBestMedian) || res.FarBestMedian < 0.3 {
		t.Fatalf("far best-of median = %v, want ~0.5 (distance-independent twins)", res.FarBestMedian)
	}
	if !strings.Contains(res.Format(), "Fig 8") {
		t.Fatal("format broken")
	}
}

func TestFig05Imputation(t *testing.T) {
	if testing.Short() {
		t.Skip("autoencoder training is slow")
	}
	env := getEnv(t)
	res, err := Fig05Imputation(env)
	if err != nil {
		t.Fatal(err)
	}
	for name, rmse := range res.RMSE {
		if math.IsNaN(rmse) || rmse <= 0 || rmse > 5 {
			t.Fatalf("%s RMSE = %v, implausible", name, rmse)
		}
	}
}

func TestHorizonExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("forest sweeps are slow")
	}
	env := getEnv(t)
	res, err := RunHorizonExperiment(env, forecast.BeHot)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 8 {
		t.Fatalf("models in curves = %d, want 8", len(res.Curves))
	}
	// Shape checks: Average clearly beats Random; RF-F1 >= Average on mean.
	mean := func(model string) float64 {
		vals := 0.0
		n := 0
		for _, p := range res.Curves[model] {
			if !math.IsNaN(p.Mean) {
				vals += p.Mean
				n++
			}
		}
		return vals / float64(n)
	}
	if mean("Average") < 2*mean("Random") {
		t.Fatalf("Average lift %v not clearly above Random %v", mean("Average"), mean("Random"))
	}
	if mean("RF-F1") < mean("Average")*0.9 {
		t.Fatalf("RF-F1 (%v) should compete with Average (%v)", mean("RF-F1"), mean("Average"))
	}
	out := res.Format()
	if !strings.Contains(out, "Fig 9") || !strings.Contains(out, "Fig 10") {
		t.Fatal("format output missing figures")
	}
}

func TestImportanceExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("forest fit is slow")
	}
	env := getEnv(t)
	res, err := RunImportanceExperiment(env, forecast.BeHot)
	if err != nil {
		t.Fatal(err)
	}
	total := res.ScoreChannelShare() + res.KPIShare() + res.CalendarShare()
	if math.Abs(total-1) > 1e-6 {
		t.Fatalf("importance shares sum to %v", total)
	}
	// The paper's headline: past scores dominate, calendar is negligible.
	if res.ScoreChannelShare() < res.CalendarShare() {
		t.Fatal("calendar outweighs scores; Fig 15 shape lost")
	}
	if !strings.Contains(res.Format(), "Fig 15") {
		t.Fatal("format broken")
	}
}

func TestAblationBalancedWeights(t *testing.T) {
	if testing.Short() {
		t.Skip("tree sweeps are slow")
	}
	env := getEnv(t)
	res, err := RunAblationBalancedWeights(env)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.PaperLift) || math.IsNaN(res.VariantLift) {
		t.Fatalf("ablation produced NaN: %+v", res)
	}
	if res.Points == 0 {
		t.Fatal("no evaluation points")
	}
	if !strings.Contains(res.Format(), "balanced-weights") {
		t.Fatal("format broken")
	}
}

func TestAblationSpatial(t *testing.T) {
	if testing.Short() {
		t.Skip("forest sweeps are slow")
	}
	env := getEnv(t)
	res, err := RunAblationSpatial(env)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's spatially unconstrained design should not lose clearly.
	if res.PaperLift < res.VariantLift*0.8 {
		t.Fatalf("global model (%.2f) loses badly to city-local (%.2f); Fig 8C conclusion violated",
			res.PaperLift, res.VariantLift)
	}
}

func TestPRCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("forest fit is slow")
	}
	env := getEnv(t)
	res, err := RunPRCurves(env, forecast.BeHot)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 3 {
		t.Fatalf("curves = %d, want 3", len(res.Curves))
	}
	// RF-F1 precision at recall 0.5 should beat Random's.
	rf := res.PrecisionAtRecall("RF-F1", 0.5)
	rnd := res.PrecisionAtRecall("Random", 0.5)
	if rf <= rnd {
		t.Fatalf("RF-F1 P@R0.5 (%.3f) should beat Random (%.3f)", rf, rnd)
	}
	if !strings.Contains(res.Format(), "PR curves") {
		t.Fatal("format broken")
	}
}

// TestHorizonExperimentTiny drives the full horizon pipeline (parallel
// sweep, per-model bootstrap aggregation, delta curves) at tiny scale with
// shape-only assertions, so `go test -short` still covers the path.
func TestHorizonExperimentTiny(t *testing.T) {
	env := getTinyEnv(t)
	res, err := RunHorizonExperiment(env, forecast.BeHot)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 8 {
		t.Fatalf("models in curves = %d, want 8", len(res.Curves))
	}
	out := res.Format()
	if !strings.Contains(out, "Fig 9") || !strings.Contains(out, "Fig 10") {
		t.Fatal("format output missing figures")
	}
}

// TestHorizonExperimentDeterministic re-runs the tiny horizon experiment
// on a fresh env at a different worker count: curves (bootstrap CIs
// included) must be bit-identical, the end-to-end determinism contract of
// the parallel engine.
func TestHorizonExperimentDeterministic(t *testing.T) {
	runOnce := func(workers int) *HorizonResult {
		s := TinyScale()
		s.Workers = workers
		env, err := Prepare(s)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunHorizonExperiment(env, forecast.BeHot)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runOnce(1), runOnce(4)
	for model, ca := range a.Curves {
		cb, ok := b.Curves[model]
		if !ok || len(ca) != len(cb) {
			t.Fatalf("curves for %s differ in shape", model)
		}
		for i := range ca {
			pa, pb := ca[i], cb[i]
			if pa.X != pb.X || !eqNaN(pa.Mean, pb.Mean) || !eqNaN(pa.Lo, pb.Lo) || !eqNaN(pa.Hi, pb.Hi) {
				t.Fatalf("%s point %d differs across worker counts:\n%+v\n%+v", model, i, pa, pb)
			}
		}
	}
}

func eqNaN(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestWindowExperimentTiny covers RunWindowExperiment (previously
// bench-only) at -short cost.
func TestWindowExperimentTiny(t *testing.T) {
	env := getTinyEnv(t)
	res, err := RunWindowExperiment(env, forecast.BeHot)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CurvesByH) == 0 {
		t.Fatal("no window curves")
	}
	for h, curve := range res.CurvesByH {
		if len(curve) != len(env.Scale.Ws) {
			t.Fatalf("h=%d has %d points, want one per w in %v", h, len(curve), env.Scale.Ws)
		}
	}
	if !strings.Contains(res.Format(), "Fig 13") {
		t.Fatal("format broken")
	}
}

// TestStabilityExperiment covers RunStabilityExperiment (previously
// bench-only). The full 36-day t grid makes it a non-short test.
func TestStabilityExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("stability sweeps the full t grid")
	}
	env := getTinyEnv(t)
	res, err := RunStabilityExperiment(env, forecast.BeHot)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PValues) == 0 {
		t.Fatal("no KS cells")
	}
	for _, c := range res.PValues {
		if c.PValue < 0 || c.PValue > 1 {
			t.Fatalf("KS p-value out of range: %+v", c)
		}
	}
	if !strings.Contains(res.Format(), "Sec V-A") {
		t.Fatal("format broken")
	}
}

func TestUnbalancedAndSubsetOptions(t *testing.T) {
	env := getEnv(t)
	m := forecast.NewTreeModel()
	m.Unbalanced = true
	m.SectorSubset = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	scores, err := m.Forecast(env.Ctx, forecast.BeHot, 60, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != env.Ctx.Sectors() {
		t.Fatal("subset training must still predict all sectors")
	}
}

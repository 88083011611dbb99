package score

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
	"repro/internal/tensor"
)

func simpleWeighting(t *testing.T) *Weighting {
	t.Helper()
	w, err := NewWeighting([]float64{1, 1}, []float64{0.5, 0.5}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWeightingValidation(t *testing.T) {
	cases := []struct {
		omega, eps []float64
		thr        float64
	}{
		{[]float64{1}, []float64{1, 2}, 0.5},       // length mismatch
		{nil, nil, 0.5},                            // empty
		{[]float64{-1}, []float64{0}, 0.5},         // negative weight
		{[]float64{0}, []float64{0}, 0.5},          // all-zero weights
		{[]float64{1}, []float64{0}, 0},            // bad threshold
		{[]float64{1}, []float64{0}, 1},            // bad threshold
		{[]float64{math.NaN()}, []float64{0}, 0.5}, // NaN weight
	}
	for i, c := range cases {
		if _, err := NewWeighting(c.omega, c.eps, c.thr); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestHourlyScoreEquation1(t *testing.T) {
	w := simpleWeighting(t)
	k := tensor.NewTensor3(1, 3, 2)
	// Hour 0: both below threshold -> 0. Hour 1: one above -> 0.5.
	// Hour 2: both above -> 1.
	k.Set(0, 0, 0, 0.1)
	k.Set(0, 0, 1, 0.2)
	k.Set(0, 1, 0, 0.9)
	k.Set(0, 1, 1, 0.2)
	k.Set(0, 2, 0, 0.9)
	k.Set(0, 2, 1, 0.7)
	s := w.Hourly(k)
	want := []float64{0, 0.5, 1}
	for j, v := range want {
		if got := s.At(0, j); got != v {
			t.Fatalf("S'(0,%d) = %v, want %v", j, got, v)
		}
	}
}

func TestHourlyScoreWeighted(t *testing.T) {
	w, err := NewWeighting([]float64{3, 1}, []float64{0, 0}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	k := tensor.NewTensor3(1, 1, 2)
	k.Set(0, 0, 0, 1)  // crosses, weight 3
	k.Set(0, 0, 1, -1) // below
	s := w.Hourly(k)
	if got := s.At(0, 0); got != 0.75 {
		t.Fatalf("weighted score = %v, want 0.75", got)
	}
}

func TestHourlyScoreMissingValues(t *testing.T) {
	w := simpleWeighting(t)
	k := tensor.NewTensor3(1, 2, 2)
	k.Set(0, 0, 0, math.NaN())
	k.Set(0, 0, 1, 0.9) // crossing, weight 1 of total 2
	k.Set(0, 1, 0, math.NaN())
	k.Set(0, 1, 1, math.NaN())
	s := w.Hourly(k)
	if got := s.At(0, 0); got != 0.5 {
		t.Fatalf("partial-missing score = %v, want 0.5", got)
	}
	if !math.IsNaN(s.At(0, 1)) {
		t.Fatal("all-missing hour should have NaN score")
	}
}

func TestHourlyPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	simpleWeighting(t).Hourly(tensor.NewTensor3(1, 1, 3))
}

func TestMuBasics(t *testing.T) {
	z := []float64{1, 2, 3, 4, 5}
	if got := Mu(4, 2, z); got != 4.5 {
		t.Fatalf("Mu(4,2) = %v, want 4.5 (mean of 4,5)", got)
	}
	if got := Mu(4, 5, z); got != 3 {
		t.Fatalf("Mu(4,5) = %v, want 3", got)
	}
	// Window clipped at the start.
	if got := Mu(1, 5, z); got != 1.5 {
		t.Fatalf("Mu(1,5) = %v, want 1.5", got)
	}
	if !math.IsNaN(Mu(0, 0, z)) {
		t.Fatal("zero window should be NaN")
	}
	if !math.IsNaN(Mu(-3, 2, z)) {
		t.Fatal("window entirely before series should be NaN")
	}
}

func TestMuSkipsNaN(t *testing.T) {
	z := []float64{1, math.NaN(), 3}
	if got := Mu(2, 3, z); got != 2 {
		t.Fatalf("Mu with NaN = %v, want 2", got)
	}
}

// Property: Mu lies between min and max of the window.
func TestMuBoundedProperty(t *testing.T) {
	f := func(raw []float64, xr, yr uint8) bool {
		if len(raw) == 0 {
			return true
		}
		z := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				v = 0 // avoid overflow in the summed mean
			}
			z[i] = v
		}
		x := int(xr) % len(z)
		y := int(yr)%len(z) + 1
		m := Mu(x, y, z)
		if math.IsNaN(m) {
			return true
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for j := x - y + 1; j <= x; j++ {
			if j < 0 || j >= len(z) {
				continue
			}
			lo = math.Min(lo, z[j])
			hi = math.Max(hi, z[j])
		}
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIntegrate(t *testing.T) {
	h := tensor.NewMatrix(1, 6)
	for j := 0; j < 6; j++ {
		h.Set(0, j, float64(j))
	}
	d := Integrate(h, 3)
	if d.Cols != 2 {
		t.Fatalf("blocks = %d, want 2", d.Cols)
	}
	if d.At(0, 0) != 1 || d.At(0, 1) != 4 {
		t.Fatalf("Integrate = %v", d.Row(0))
	}
}

func TestIntegratePanicsOnBadDelta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Integrate(tensor.NewMatrix(1, 5), 3)
}

func TestIntegrateHandlesNaN(t *testing.T) {
	h := tensor.NewMatrix(1, 4)
	h.Set(0, 0, 1)
	h.Set(0, 1, math.NaN())
	h.Set(0, 2, math.NaN())
	h.Set(0, 3, math.NaN())
	d := Integrate(h, 2)
	if d.At(0, 0) != 1 {
		t.Fatalf("block with one NaN = %v, want 1", d.At(0, 0))
	}
	if !math.IsNaN(d.At(0, 1)) {
		t.Fatal("all-NaN block should be NaN")
	}
}

func TestLabelsEquation4(t *testing.T) {
	w := simpleWeighting(t)
	s := tensor.NewMatrix(1, 4)
	s.Set(0, 0, 0.59)
	s.Set(0, 1, 0.60)
	s.Set(0, 2, 0.95)
	s.Set(0, 3, math.NaN())
	y := w.Labels(s)
	want := []float64{0, 1, 1, 0}
	for j, v := range want {
		if y.At(0, j) != v {
			t.Fatalf("Y(0,%d) = %v, want %v", j, y.At(0, j), v)
		}
	}
}

func TestComputeShapes(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Sectors = 60
	cfg.Weeks = 4
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := Compute(ds.K, DefaultWeighting())
	n := ds.K.N
	if set.Sh.Rows != n || set.Sh.Cols != 4*168 {
		t.Fatal("Sh shape wrong")
	}
	if set.Sd.Cols != 28 || set.Sw.Cols != 4 {
		t.Fatal("Sd/Sw shape wrong")
	}
	if set.Yd.Rows != n || set.Yw.Cols != 4 {
		t.Fatal("label shapes wrong")
	}
	// Scores are in [0,1] or NaN.
	for _, v := range set.Sh.Data {
		if !math.IsNaN(v) && (v < 0 || v > 1) {
			t.Fatalf("score %v out of [0,1]", v)
		}
	}
}

func TestHotDriveRaisesScores(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Sectors = 80
	cfg.Weeks = 6
	cfg.MissingTarget = 0
	cfg.BadSectorFrac = 0
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := Compute(ds.K, DefaultWeighting())
	var hotSum, coldSum float64
	var hotN, coldN int
	for i := 0; i < ds.K.N; i++ {
		for j := 0; j < ds.K.T; j++ {
			v := set.Sh.At(i, j)
			if math.IsNaN(v) {
				continue
			}
			if ds.Truth.HotDrive.At(i, j) > 0 {
				hotSum += v
				hotN++
			} else {
				coldSum += v
				coldN++
			}
		}
	}
	if hotN == 0 || coldN == 0 {
		t.Skip("degenerate dataset")
	}
	hotMean, coldMean := hotSum/float64(hotN), coldSum/float64(coldN)
	if hotMean < 0.7 {
		t.Fatalf("mean hot-hour score %v too low; labels will not trigger", hotMean)
	}
	if coldMean > 0.35 {
		t.Fatalf("mean cold-hour score %v too high; labels too noisy", coldMean)
	}
}

func TestDailyPrevalenceCalibrated(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Sectors = 400
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := Compute(ds.K, DefaultWeighting())
	hot := 0
	for _, v := range set.Yd.Data {
		if v > 0 {
			hot++
		}
	}
	prev := float64(hot) / float64(len(set.Yd.Data))
	// Lift magnitudes in the paper imply prevalence in the mid single
	// digits; the generator is calibrated for 3-12%.
	if prev < 0.02 || prev > 0.15 {
		t.Fatalf("daily hot-spot prevalence = %.3f, want within [0.02, 0.15]", prev)
	}
}

func TestBecomeLabels(t *testing.T) {
	// Hand-built series: cool for 10 days, hot for 10 days.
	sd := tensor.NewMatrix(1, 24)
	for j := 0; j < 24; j++ {
		if j >= 10 {
			sd.Set(0, j, 0.9)
		} else {
			sd.Set(0, j, 0.1)
		}
	}
	b := BecomeLabels(sd, 0.6)
	for j := 0; j < 24; j++ {
		want := 0.0
		if j == 9 { // last cool day before the switch
			want = 1
		}
		if b.At(0, j) != want {
			t.Fatalf("become(0,%d) = %v, want %v", j, b.At(0, j), want)
		}
	}
}

func TestBecomeLabelsRejectsBriefSpike(t *testing.T) {
	// One isolated hot day must not count: after-week mean stays low.
	sd := tensor.NewMatrix(1, 30)
	for j := 0; j < 30; j++ {
		sd.Set(0, j, 0.1)
	}
	sd.Set(0, 15, 0.9)
	b := BecomeLabels(sd, 0.6)
	for j := 0; j < 30; j++ {
		if b.At(0, j) != 0 {
			t.Fatalf("brief spike wrongly labelled at %d", j)
		}
	}
}

func TestBecomeLabelsRejectsAlreadyHot(t *testing.T) {
	// Hot throughout: never "becomes".
	sd := tensor.NewMatrixFilled(1, 30, 0.9)
	b := BecomeLabels(sd, 0.6)
	for j := 0; j < 30; j++ {
		if b.At(0, j) != 0 {
			t.Fatal("already-hot sector wrongly labelled")
		}
	}
}

func TestBecomeLabelsNoConsecutiveActivations(t *testing.T) {
	// Oscillation right at the boundary: activations must not repeat on
	// consecutive days.
	sd := tensor.NewMatrix(1, 40)
	for j := 0; j < 40; j++ {
		if j >= 12 {
			sd.Set(0, j, 0.95)
		} else {
			sd.Set(0, j, 0.2)
		}
	}
	b := BecomeLabels(sd, 0.6)
	count := 0
	for j := 0; j < 40; j++ {
		if b.At(0, j) > 0 {
			count++
			if j+1 < 40 && b.At(0, j+1) > 0 {
				t.Fatal("consecutive activations not deduplicated")
			}
		}
	}
	if count != 1 {
		t.Fatalf("activations = %d, want 1", count)
	}
}

func TestBecomeLabelsOnSynthetic(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Sectors = 300
	cfg.ProfileMix = [5]float64{0.3, 0, 0, 0, 0.7}
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := Compute(ds.K, DefaultWeighting())
	b := BecomeLabels(set.Sd, DefaultHotThreshold)
	events := 0
	for _, v := range b.Data {
		if v > 0 {
			events++
		}
	}
	if events == 0 {
		t.Fatal("no become-events detected on an emerging-heavy dataset")
	}
	// Sanity: events should be in the same order of magnitude as the
	// non-aborted, in-range truth episodes.
	truthEvents := 0
	for _, ep := range ds.Truth.Episodes {
		if !ep.Aborted && ep.HotStart > 7 && ep.HotStart < ds.Grid.Days()-7 {
			truthEvents++
		}
	}
	if truthEvents > 0 && (events < truthEvents/4 || events > truthEvents*4) {
		t.Fatalf("become events = %d vs truth episodes = %d: calibration off", events, truthEvents)
	}
}

func TestFilterSectors(t *testing.T) {
	k := tensor.NewTensor3(2, 2*168, 2)
	// Sector 1: wipe 60% of week 0.
	for j := 0; j < 101; j++ {
		k.Set(1, j, 0, math.NaN())
		k.Set(1, j, 1, math.NaN())
	}
	keep := FilterSectors(k, 0.5)
	if len(keep) != 1 || keep[0] != 0 {
		t.Fatalf("keep = %v, want [0]", keep)
	}
}

func TestFilterSectorsOnSynthetic(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Sectors = 200
	cfg.Weeks = 6
	cfg.BadSectorFrac = 0.1
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keep := FilterSectors(ds.K, 0.5)
	n := ds.K.N
	if len(keep) == n {
		t.Fatal("filtering removed nothing despite bad sectors")
	}
	if len(keep) < n*8/10 {
		t.Fatalf("filtering removed too much: kept %d of %d", len(keep), n)
	}
	// After filtering, remaining missing fraction should be small.
	sub := ds.K.SelectSectors(keep)
	if frac := sub.MissingFraction(); frac > 0.10 {
		t.Fatalf("post-filter missing fraction = %v", frac)
	}
}

// TestWorkersBitIdentical: the missing-data filter and the score chain
// run per sector on the shared pool, and give bit-identical results at
// GOMAXPROCS 1 and N. It runs under -short so the race detector sees the
// pool.
func TestWorkersBitIdentical(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Sectors, cfg.Weeks, cfg.BadSectorFrac = 120, 4, 0.1
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs int) ([]int, *Set) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return FilterSectors(ds.K, 0.5), Compute(ds.K, DefaultWeighting())
	}
	keep1, set1 := run(1)
	keepN, setN := run(max(4, runtime.NumCPU()))
	if len(keep1) == ds.N() || !reflect.DeepEqual(keep1, keepN) {
		t.Fatalf("survivors: %d of %d at 1 proc, %d at N", len(keep1), ds.N(), len(keepN))
	}
	for _, m := range []struct {
		name string
		a, b *tensor.Matrix
	}{
		{"Sh", set1.Sh, setN.Sh}, {"Sd", set1.Sd, setN.Sd}, {"Sw", set1.Sw, setN.Sw},
		{"Yh", set1.Yh, setN.Yh}, {"Yd", set1.Yd, setN.Yd}, {"Yw", set1.Yw, setN.Yw},
	} {
		for i := range m.a.Data {
			if math.Float64bits(m.a.Data[i]) != math.Float64bits(m.b.Data[i]) {
				t.Fatalf("%s differs at %d between 1 and N procs", m.name, i)
			}
		}
	}
}

func TestWeeklyScoreNaturalThreshold(t *testing.T) {
	// The weekly score histogram should be strongly bimodal around the
	// operator threshold: most mass far below 0.6, a visible mode above.
	cfg := simnet.DefaultConfig()
	cfg.Sectors = 400
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := Compute(ds.K, DefaultWeighting())
	var low, mid, high int
	for _, v := range set.Sw.Data {
		switch {
		case math.IsNaN(v):
		case v < 0.45:
			low++
		case v < 0.62:
			mid++
		default:
			high++
		}
	}
	if high == 0 {
		t.Fatal("no weekly scores above threshold: persistent sectors missing")
	}
	if low < high {
		t.Fatal("score distribution inverted: most sectors should be healthy")
	}
	// The valley: mid-bucket should be sparser than both ends per unit
	// width (low bucket is ~3x wider).
	if float64(mid) > float64(low)/3*0.8 {
		t.Fatalf("no valley near 0.6: low=%d mid=%d high=%d", low, mid, high)
	}
}

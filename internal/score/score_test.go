package score

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
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
		{[]float64{1}, []float64{1, 2}, 0.5},                     // length mismatch
		{nil, nil, 0.5},                                          // empty
		{[]float64{-1}, []float64{0}, 0.5},                       // negative weight
		{[]float64{0}, []float64{0}, 0.5},                        // all-zero weights
		{[]float64{1}, []float64{0}, 0},                          // bad threshold
		{[]float64{1}, []float64{0}, 1},                          // bad threshold
		{[]float64{math.NaN()}, []float64{0}, 0.5},               // NaN weight
		{[]float64{math.Inf(1)}, []float64{0}, 0.5},              // infinite weight
		{[]float64{1, 1}, []float64{0, math.NaN()}, 0.5},         // NaN threshold
		{[]float64{1, 1}, []float64{math.Inf(1), 0}, 0.5},        // infinite threshold
		{[]float64{1, 1, 1}, []float64{0, 0, math.Inf(-1)}, 0.5}, // infinite threshold
	}
	for i, c := range cases {
		if _, err := NewWeighting(c.omega, c.eps, c.thr); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// A bad threshold is named by its KPI index.
	if _, err := NewWeighting([]float64{1, 1, 1}, []float64{0, 0, math.NaN()}, 0.5); err == nil ||
		!strings.Contains(err.Error(), "threshold 2 ") {
		t.Errorf("NaN threshold of KPI 2: err = %v, want it to name threshold 2", err)
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
	if yw := set.Weighting.Labels(set.Sw); set.Yd.Rows != n || set.Yd.Cols != 28 || yw.Cols != 4 {
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
	// The hourly and weekly labels the analyses derive are labelled at the
	// same proc count.
	run := func(procs int) ([]int, *Set, [2]*tensor.Matrix) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		set := Compute(ds.K, DefaultWeighting())
		return FilterSectors(ds.K, 0.5), set, [2]*tensor.Matrix{set.Weighting.Labels(set.Sh), set.Weighting.Labels(set.Sw)}
	}
	fused := func(procs int) ([]int, *tensor.Matrix) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return DefaultWeighting().FilterHourly(ds.K, 0.5)
	}
	keep1, set1, y1 := run(1)
	keepN, setN, yN := run(max(4, runtime.NumCPU()))
	fusedKeep1, fusedSh1 := fused(1)
	fusedKeepN, fusedShN := fused(max(4, runtime.NumCPU()))
	if !reflect.DeepEqual(fusedKeep1, keep1) || !reflect.DeepEqual(fusedKeepN, keep1) {
		t.Fatalf("fused pass keeps %d sectors at 1 proc and %d at N, filter keeps %d", len(fusedKeep1), len(fusedKeepN), len(keep1))
	}
	if i, ok := sameBits(fusedSh1.Data, fusedShN.Data); !ok {
		t.Fatalf("fused S' differs at %d between 1 and N procs", i)
	}
	if len(keep1) == ds.N() || !reflect.DeepEqual(keep1, keepN) {
		t.Fatalf("survivors: %d of %d at 1 proc, %d at N", len(keep1), ds.N(), len(keepN))
	}
	for _, m := range []struct {
		name string
		a, b *tensor.Matrix
	}{
		{"Sh", set1.Sh, setN.Sh}, {"Sd", set1.Sd, setN.Sd}, {"Sw", set1.Sw, setN.Sw},
		{"Yh", y1[0], yN[0]}, {"Yd", set1.Yd, setN.Yd}, {"Yw", y1[1], yN[1]},
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

// sameBits reports the first index where a and b differ bit for bit.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// refHourly is Eq. 1 as written, one KPI at a time: the reference the
// scoring kernel must match bit for bit.
func refHourly(w *Weighting, k *tensor.Tensor3) *tensor.Matrix {
	out := tensor.NewMatrix(k.N, k.T)
	total := w.TotalWeight()
	for i := 0; i < k.N; i++ {
		for j := 0; j < k.T; j++ {
			sum, missing := 0.0, 0
			for f, v := range k.Cell(i, j) {
				if math.IsNaN(v) {
					missing++
					continue
				}
				sum += w.Omega[f] * mathx.Heaviside(v-w.Epsilon[f])
			}
			if missing == k.F {
				out.Set(i, j, math.NaN())
			} else {
				out.Set(i, j, sum/total)
			}
		}
	}
	return out
}

// edgeTensor is KPI data around the default thresholds with every edge of
// Eq. 1 and the missing-data rule: +-Inf, -0, values exactly at
// Epsilon[f], NaN entries and all-NaN hours; sector 1 has exactly half of
// one week missing (kept), and sector 2 one entry more (discarded), sector
// 3 breaks the rule only in its last whole week. extra hours after the
// two weeks make a partial week, which the rule ignores.
func edgeTensor(w *Weighting, extra int) *tensor.Tensor3 {
	const weeks = 2
	k := tensor.NewTensor3(6, weeks*168+extra, len(w.Omega))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < k.N; i++ {
		for j := 0; j < k.T; j++ {
			for f, eps := range w.Epsilon {
				v := eps * (0.5 + rng.Float64())
				switch r := rng.Intn(40); {
				case r == 0:
					v = math.NaN()
				case r == 1:
					v = eps
				case r == 2:
					v = math.Inf(1)
				case r == 3:
					v = math.Inf(-1)
				case r == 4:
					v = math.Copysign(0, -1)
				}
				k.Set(i, j, f, v)
			}
		}
	}
	nanEntries := func(i, week, n int) {
		cells := k.Sector(i)[week*168*k.F : (week+1)*168*k.F]
		for c := range cells {
			if math.IsNaN(cells[c]) {
				cells[c] = w.Epsilon[c%k.F]
			}
		}
		for c := 0; c < n; c++ {
			cells[c] = math.NaN()
		}
	}
	half := 168 * k.F / 2
	nanEntries(1, 0, half)
	nanEntries(2, 0, half+1)
	nanEntries(3, weeks-1, half+1)
	for j := 10; j < 14; j++ { // all-NaN hours on a survivor
		for f := 0; f < k.F; f++ {
			k.Set(4, j, f, math.NaN())
		}
	}
	return k
}

// TestFilterHourlyMatchesFilterThenHourly: the fused pass equals
// FilterSectors followed by the survivors' rows of Hourly, and both equal
// Eq. 1 evaluated one KPI at a time, bit for bit on every edge case.
func TestFilterHourlyMatchesFilterThenHourly(t *testing.T) {
	w := DefaultWeighting()
	k := edgeTensor(w, 3)
	keep := FilterSectors(k, 0.5)
	if !reflect.DeepEqual(keep, []int{0, 1, 4, 5}) {
		t.Fatalf("filter keeps %v, want [0 1 4 5]", keep)
	}
	ref := refHourly(w, k)
	if i, ok := sameBits(w.Hourly(k).Data, ref.Data); !ok {
		t.Fatalf("Hourly differs from Eq. 1 at %d", i)
	}
	gotKeep, gotSh := w.FilterHourly(k, 0.5)
	if !reflect.DeepEqual(gotKeep, keep) {
		t.Fatalf("fused pass keeps %v, filter keeps %v", gotKeep, keep)
	}
	want := ref.SelectRows(keep)
	if gotSh.Rows != want.Rows || gotSh.Cols != want.Cols {
		t.Fatalf("fused S' is %dx%d, want %dx%d", gotSh.Rows, gotSh.Cols, want.Rows, want.Cols)
	}
	if i, ok := sameBits(gotSh.Data, want.Data); !ok {
		t.Fatalf("fused S' differs at %d", i)
	}
}

// TestFromHourlyMatchesCompute: the chain run from the fused pass's S'
// equals Compute on the filtered tensor, matrix by matrix.
func TestFromHourlyMatchesCompute(t *testing.T) {
	w := DefaultWeighting()
	k := edgeTensor(w, 0) // whole weeks, as Integrate requires
	keep, sh := w.FilterHourly(k, 0.5)
	got, want := FromHourly(sh, w), Compute(k.SelectSectors(keep), w)
	for _, m := range []struct {
		name string
		a, b *tensor.Matrix
	}{
		{"Sh", got.Sh, want.Sh}, {"Sd", got.Sd, want.Sd}, {"Sw", got.Sw, want.Sw},
		{"Yd", got.Yd, want.Yd},
	} {
		if i, ok := sameBits(m.a.Data, m.b.Data); !ok {
			t.Fatalf("%s differs at %d", m.name, i)
		}
	}
}

// benchSh keeps BenchmarkFilterHourly's result live.
var benchSh *tensor.Matrix

// BenchmarkFilterHourly times the fused filter-and-score pass, Eq. 1
// over every sector-hour, on a generated 600-sector, 18-week K: the size
// of the dataset the serving benchmark's server prepares at start-up.
func BenchmarkFilterHourly(b *testing.B) {
	cfg := simnet.DefaultConfig()
	cfg.Seed, cfg.Sectors, cfg.Weeks = 1, 600, 18
	ds, err := simnet.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w := DefaultWeighting()
	b.SetBytes(int64(8 * len(ds.K.Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, benchSh = w.FilterHourly(ds.K, 0.5)
	}
}

// fuzzWeighting decodes a weighting from spec: no KPIs selects the
// default weighting; otherwise byte pair c gives KPI c's weight and
// threshold, from palettes with zeros, subnormals, signs and extremes.
// It returns nil when NewWeighting rejects the decoded values.
func fuzzWeighting(spec []byte) *Weighting {
	if len(spec) < 2 {
		return DefaultWeighting()
	}
	weights := []float64{0, 1, 0.5, 3, 0x1p-1074, 1e300, 1e-300, math.MaxFloat64 / 4}
	thresholds := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 0x1p-1074, -0x1p-1074,
		math.MaxFloat64, -math.MaxFloat64, 1e-300, 1e300, -7.25}
	f := min(len(spec)/2, 4)
	omega, eps := make([]float64, f), make([]float64, f)
	for c := range omega {
		omega[c] = weights[int(spec[2*c])%len(weights)]
		eps[c] = thresholds[int(spec[2*c+1])%len(thresholds)]
	}
	w, err := NewWeighting(omega, eps, 0.6)
	if err != nil {
		return nil
	}
	return w
}

// fuzzKPI decodes one KPI value from byte b around threshold eps: NaNs of
// either sign with assorted payloads, +-Inf, +-0, subnormals, eps itself
// and its neighbours one ULP either side, values a few units off eps,
// the largest finite values and small signed values.
func fuzzKPI(b byte, eps float64) float64 {
	p := uint64(b >> 4)
	switch b % 16 {
	case 0:
		return math.Float64frombits(0x7ff8000000000000 | p<<40 | p) // quiet NaN
	case 1:
		return math.Float64frombits(0xfff0000000000001 + p<<20) // negative signalling NaN
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return 0
	case 6:
		return math.Float64frombits(p + 1) // positive subnormal
	case 7:
		return -math.Float64frombits(p<<30 + 1) // negative subnormal
	case 8:
		return eps
	case 9:
		return math.Nextafter(eps, math.Inf(1))
	case 10:
		return math.Nextafter(eps, math.Inf(-1))
	case 11:
		return eps + float64(p)
	case 12:
		return eps - float64(p) - 1
	case 13:
		return math.MaxFloat64
	case 14:
		return -math.MaxFloat64
	default:
		return float64(int8(b)) / 8
	}
}

// FuzzFilterHourly scores untrusted KPI data: the fused pass must equal
// FilterSectors followed by Eq. 1 evaluated one KPI at a time (refHourly)
// bit for bit, Hourly must equal refHourly, and the scoring kernel's
// missing count must equal the number of NaN entries of each sector.
// The input decodes as: sectors (1-3), hours (1-344, so zero to two whole
// weeks and a partial one), the missing-data rule's fraction, a weighting
// (fuzzWeighting) and the KPI bytes, repeated to fill K.
func FuzzFilterHourly(f *testing.F) {
	all := make([]byte, 256)
	for b := range all {
		all[b] = byte(b)
	}
	f.Add(uint8(2), uint16(340), uint8(128), []byte{}, all)
	f.Add(uint8(0), uint16(167), uint8(255), []byte{}, []byte{0x08, 0x19, 0x2a, 0x05, 0x04})
	f.Add(uint8(1), uint16(336), uint8(100), []byte{1, 0, 3, 1, 5, 5, 7, 7},
		[]byte{0x00, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0d, 0x0e})
	f.Add(uint8(1), uint16(170), uint8(255), []byte{}, []byte{0x10}) // every entry NaN
	f.Add(uint8(2), uint16(200), uint8(0), []byte{4, 2, 6, 8, 2, 9, 3, 10},
		[]byte{0x21, 0x02, 0x03, 0x08, 0x0b, 0x3c, 0x0f, 0xf0})
	f.Fuzz(func(t *testing.T, n uint8, hours uint16, rule uint8, spec, data []byte) {
		w := fuzzWeighting(spec)
		if w == nil || len(data) == 0 {
			return
		}
		k := tensor.NewTensor3(int(n%3)+1, int(hours)%344+1, len(w.Omega))
		for e := range k.Data {
			k.Data[e] = fuzzKPI(data[e%len(data)], w.Epsilon[e%k.F])
		}
		maxWeekMissing := float64(rule) / 255
		ref := refHourly(w, k)
		if i, ok := sameBits(w.Hourly(k).Data, ref.Data); !ok {
			t.Fatalf("Hourly differs from Eq. 1 at %d", i)
		}
		keep := FilterSectors(k, maxWeekMissing)
		gotKeep, gotSh := w.FilterHourly(k, maxWeekMissing)
		if !reflect.DeepEqual(gotKeep, keep) {
			t.Fatalf("fused pass keeps %v, filter keeps %v", gotKeep, keep)
		}
		if i, ok := sameBits(gotSh.Data, ref.SelectRows(keep).Data); !ok {
			t.Fatalf("fused S' differs at %d", i)
		}
		row := make([]float64, k.T)
		for i := 0; i < k.N; i++ {
			nan := 0
			for _, v := range k.Sector(i) {
				if math.IsNaN(v) {
					nan++
				}
			}
			if got := w.scoreHours(row, k.Sector(i), w.TotalWeight()); got != nan {
				t.Fatalf("sector %d: kernel counts %d missing, K holds %d NaN", i, got, nan)
			}
		}
	})
}

package features

import (
	"math"
	"testing"

	"repro/internal/score"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/timegrid"
)

// tinyView builds a 2-sector, 2-week view with recognisable values:
// K[i,j,f] = i*1000 + j + f/100, calendar real, scores derived.
func tinyView(t *testing.T) *View {
	t.Helper()
	n, weeks, l := 2, 2, 3
	mh := weeks * timegrid.HoursPerWeek
	k := tensor.NewTensor3(n, mh, l)
	for i := 0; i < n; i++ {
		for j := 0; j < mh; j++ {
			for f := 0; f < l; f++ {
				k.Set(i, j, f, float64(i*1000)+float64(j)+float64(f)/100)
			}
		}
	}
	grid, err := timegrid.New(timegrid.PaperStart, weeks)
	if err != nil {
		t.Fatal(err)
	}
	c := grid.Calendar()
	sh := tensor.NewMatrix(n, mh)
	for i := 0; i < n; i++ {
		for j := 0; j < mh; j++ {
			sh.Set(i, j, float64(j%24)/24)
		}
	}
	sd := score.Integrate(sh, timegrid.HoursPerDay)
	sw := score.Integrate(sh, timegrid.HoursPerWeek)
	yd := tensor.NewMatrix(n, sd.Cols)
	yd.Set(0, 3, 1)
	v, err := NewView(k, c, sh, sd, sw, yd)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNewViewValidatesShapes(t *testing.T) {
	v := tinyView(t)
	bad := tensor.NewMatrix(1, 1)
	if _, err := NewView(v.K, bad, v.Sh, v.Sd, v.Sw, v.Yd); err == nil {
		t.Fatal("bad calendar accepted")
	}
	if _, err := NewView(v.K, v.C, bad, v.Sd, v.Sw, v.Yd); err == nil {
		t.Fatal("bad Sh accepted")
	}
	if _, err := NewView(v.K, v.C, v.Sh, bad, v.Sw, v.Yd); err == nil {
		t.Fatal("bad Sd accepted")
	}
	if _, err := NewView(v.K, v.C, v.Sh, v.Sd, bad, v.Yd); err == nil {
		t.Fatal("bad Sw accepted")
	}
	if _, err := NewView(v.K, v.C, v.Sh, v.Sd, v.Sw, bad); err == nil {
		t.Fatal("bad Yd accepted")
	}
}

func TestViewChannelCount(t *testing.T) {
	v := tinyView(t)
	if got := v.Channels(); got != 3+5+4 {
		t.Fatalf("channels = %d, want 12", got)
	}
}

func TestViewMatchesMaterialize(t *testing.T) {
	v := tinyView(t)
	x := v.Materialize()
	if x.N != v.Sectors() || x.T != v.Hours() || x.F != v.Channels() {
		t.Fatalf("materialized shape %dx%dx%d", x.N, x.T, x.F)
	}
	for i := 0; i < x.N; i++ {
		for j := 0; j < x.T; j += 17 {
			for c := 0; c < x.F; c++ {
				want := x.At(i, j, c)
				if math.IsNaN(want) {
					want = 0
				}
				if got := v.At(i, j, c); got != want {
					t.Fatalf("View.At(%d,%d,%d) = %v, materialized = %v", i, j, c, got, want)
				}
			}
		}
	}
}

func TestViewUpsampledChannels(t *testing.T) {
	v := tinyView(t)
	l := v.K.F
	// Sd channel: constant within a day, equals the daily score.
	c := l + CalendarChannels + 1
	for h := 0; h < 24; h++ {
		if v.At(0, 24+h, c) != v.Sd.At(0, 1) {
			t.Fatal("Sd channel not constant within day 1")
		}
	}
	// Yd channel reflects the label at day 3.
	cy := l + CalendarChannels + 3
	if v.At(0, 3*24+5, cy) != 1 || v.At(1, 3*24+5, cy) != 0 {
		t.Fatal("Yd channel wrong")
	}
}

func TestViewNaNBecomesZero(t *testing.T) {
	v := tinyView(t)
	v.K.Set(0, 0, 0, math.NaN())
	if got := v.At(0, 0, 0); got != 0 {
		t.Fatalf("NaN passthrough = %v, want 0", got)
	}
}

func TestCheckWindow(t *testing.T) {
	v := tinyView(t)
	if err := CheckWindow(v, 7, 7); err != nil {
		t.Fatalf("valid window rejected: %v", err)
	}
	if err := CheckWindow(v, 3, 7); err == nil {
		t.Fatal("window before start accepted")
	}
	if err := CheckWindow(v, 15, 1); err == nil {
		t.Fatal("window past end accepted")
	}
	if err := CheckWindow(v, 7, 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestRawExtract(t *testing.T) {
	v := tinyView(t)
	var raw Raw
	w := 2
	out := make([]float64, raw.Width(v, w))
	raw.Extract(v, 1, 5, w, nil, out)
	// First value: hour (5-2)*24 = 72, channel 0 -> K[1,72,0] = 1000+72.
	if out[0] != 1072 {
		t.Fatalf("raw[0] = %v, want 1072", out[0])
	}
	// Stride check: second hour starts after Channels() values.
	if out[v.Channels()] != 1073 {
		t.Fatalf("raw[stride] = %v, want 1073", out[v.Channels()])
	}
	if len(out) != 2*24*v.Channels() {
		t.Fatalf("raw width = %d", len(out))
	}
}

func TestPercentilesExtract(t *testing.T) {
	v := tinyView(t)
	var pct Percentiles
	w := 1
	out := make([]float64, pct.Width(v, w))
	pct.Extract(v, 0, 1, w, nil, out)
	// Channel 0 on day 0 is 0..23; median = 11.5, p5 = 1.15.
	if math.Abs(out[2]-11.5) > 1e-9 {
		t.Fatalf("median = %v, want 11.5", out[2])
	}
	if math.Abs(out[0]-1.15) > 1e-9 {
		t.Fatalf("p5 = %v, want 1.15", out[0])
	}
	if len(out) != 5*v.Channels() {
		t.Fatalf("width = %d", len(out))
	}
}

func TestHandCraftedExtract(t *testing.T) {
	v := tinyView(t)
	var hc HandCrafted
	w := 7
	out := make([]float64, hc.Width(v, w))
	hc.Extract(v, 0, 7, w, nil, out)
	// Channel 0, whole-window mean of 0..167 = 83.5.
	if math.Abs(out[0]-83.5) > 1e-9 {
		t.Fatalf("mean = %v, want 83.5", out[0])
	}
	// Halves: first-half mean 41.5, second-half mean 125.5, diff 84.
	if math.Abs(out[4]-41.5) > 1e-9 || math.Abs(out[8]-125.5) > 1e-9 {
		t.Fatalf("half means = %v / %v", out[4], out[8])
	}
	if math.Abs(out[12]-84) > 1e-9 {
		t.Fatalf("half diff = %v, want 84", out[12])
	}
	// Last-day raw block ends with mean/std of last day: mean of 144..167 =
	// 155.5.
	base := handCraftedPerChannel - 2
	if math.Abs(out[base]-155.5) > 1e-9 {
		t.Fatalf("last-day mean = %v, want 155.5", out[base])
	}
	if len(out) != handCraftedPerChannel*v.Channels() {
		t.Fatalf("width = %d", len(out))
	}
}

func TestHandCraftedShortWindow(t *testing.T) {
	// A 2-day window has missing weekdays in the week profile; they must be
	// emitted as zeros, not NaN.
	v := tinyView(t)
	var hc HandCrafted
	out := make([]float64, hc.Width(v, 2))
	hc.Extract(v, 1, 2, 2, nil, out)
	for i, val := range out {
		if math.IsNaN(val) {
			t.Fatalf("NaN at feature %d", i)
		}
	}
}

func TestBuildMatrix(t *testing.T) {
	v := tinyView(t)
	x, width, err := BuildMatrix(v, Raw{}, []int{0, 1}, []int{3, 5}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if width != (Raw{}).Width(v, 2) {
		t.Fatalf("width = %d", width)
	}
	if len(x) != 2*width {
		t.Fatalf("matrix size = %d", len(x))
	}
	// Row 0 starts at day 1 hour 24: K[0,24,0] = 24.
	if x[0] != 24 {
		t.Fatalf("x[0] = %v, want 24", x[0])
	}
	// No NaNs anywhere (mltree requirement).
	for i, val := range x {
		if math.IsNaN(val) {
			t.Fatalf("NaN at %d", i)
		}
	}
}

// TestBuildMatrixWorkersBitIdentical: extracting a training matrix on a
// pool of workers gives the bits one worker gives, for every extractor,
// over more instances than one task extracts and with NaN-heavy input.
func TestBuildMatrixWorkersBitIdentical(t *testing.T) {
	v := nanHeavyView(t)
	const w = 3
	days := v.Hours() / timegrid.HoursPerDay
	var sectors, ends []int
	for r := 0; r < 3*buildChunkRows+5; r++ {
		sectors = append(sectors, (r*7)%v.Sectors())
		ends = append(ends, w+r%(days-w+1))
	}
	for _, ex := range []Extractor{Raw{}, Percentiles{}, HandCrafted{}} {
		want, _, err := BuildMatrix(v, ex, sectors, ends, w, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 0} {
			got, _, err := BuildMatrix(v, ex, sectors, ends, w, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s, %d workers: value %d = %v, want %v", ex.Name(), workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestBuildMatrixErrors(t *testing.T) {
	v := tinyView(t)
	if _, _, err := BuildMatrix(v, Raw{}, []int{0}, []int{3, 5}, 2, 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := BuildMatrix(v, Raw{}, []int{0}, []int{1}, 5, 1); err == nil {
		t.Fatal("invalid window accepted")
	}
}

// TestBuildMatrixWindowExceedsHistory: windows reaching before day 0 or
// past the last day must error for every extractor, not read out of range.
func TestBuildMatrixWindowExceedsHistory(t *testing.T) {
	v := tinyView(t) // 14 days
	days := v.Hours() / timegrid.HoursPerDay
	for _, ex := range []Extractor{Raw{}, Percentiles{}, HandCrafted{}} {
		// w exceeds the history available before end=3.
		if _, _, err := BuildMatrix(v, ex, []int{0}, []int{3}, 4, 1); err == nil {
			t.Fatalf("%s: window past day 0 accepted", ex.Name())
		}
		// end beyond the grid.
		if _, _, err := BuildMatrix(v, ex, []int{0}, []int{days + 1}, 1, 1); err == nil {
			t.Fatalf("%s: end day beyond grid accepted", ex.Name())
		}
		// Zero-length and negative windows.
		if _, _, err := BuildMatrix(v, ex, []int{0}, []int{3}, 0, 1); err == nil {
			t.Fatalf("%s: w=0 accepted", ex.Name())
		}
		if _, _, err := BuildMatrix(v, ex, []int{0}, []int{3}, -1, 1); err == nil {
			t.Fatalf("%s: w=-1 accepted", ex.Name())
		}
		// The largest valid window at the last day still works.
		if _, _, err := BuildMatrix(v, ex, []int{0}, []int{days}, days, 1); err != nil {
			t.Fatalf("%s: full-history window rejected: %v", ex.Name(), err)
		}
	}
}

// TestBuildMatrixEmptyInstances: empty sector/end slices produce an empty
// matrix with the extractor's width still reported, not an error — callers
// (degenerate training subsets) rely on the distinction.
func TestBuildMatrixEmptyInstances(t *testing.T) {
	v := tinyView(t)
	for _, ex := range []Extractor{Raw{}, Percentiles{}, HandCrafted{}} {
		x, width, err := BuildMatrix(v, ex, nil, nil, 2, 1)
		if err != nil {
			t.Fatalf("%s: empty build errored: %v", ex.Name(), err)
		}
		if len(x) != 0 {
			t.Fatalf("%s: empty build returned %d values", ex.Name(), len(x))
		}
		if width != ex.Width(v, 2) {
			t.Fatalf("%s: width = %d, want %d", ex.Name(), width, ex.Width(v, 2))
		}
	}
}

// TestBuildMatrixWidthConsistency: the reported width must match the
// extractor's contract for every window length, so row slicing can never
// misalign.
func TestBuildMatrixWidthConsistency(t *testing.T) {
	v := tinyView(t)
	for _, ex := range []Extractor{Raw{}, Percentiles{}, HandCrafted{}} {
		for _, w := range []int{1, 2, 7} {
			x, width, err := BuildMatrix(v, ex, []int{0, 1}, []int{7, 9}, w, 1)
			if err != nil {
				t.Fatalf("%s w=%d: %v", ex.Name(), w, err)
			}
			if width != ex.Width(v, w) {
				t.Fatalf("%s w=%d: width %d != contract %d", ex.Name(), w, width, ex.Width(v, w))
			}
			if len(x) != 2*width {
				t.Fatalf("%s w=%d: %d values for 2 rows of width %d", ex.Name(), w, len(x), width)
			}
		}
	}
}

// TestBuildAllSectorsMatchesBuildMatrix: the cache's uniform build must be
// value-identical to the general path over all sectors at one end day.
func TestBuildAllSectorsMatchesBuildMatrix(t *testing.T) {
	v := tinyView(t)
	for _, ex := range []Extractor{Raw{}, Percentiles{}, HandCrafted{}} {
		sectors := []int{0, 1}
		ends := []int{5, 5}
		want, wantWidth, err := BuildMatrix(v, ex, sectors, ends, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, gotWidth, err := BuildAllSectors(v, ex, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		if gotWidth != wantWidth || len(got) != len(want) {
			t.Fatalf("%s: shape %d/%d vs %d/%d", ex.Name(), len(got), gotWidth, len(want), wantWidth)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: value %d differs: %v vs %v", ex.Name(), i, got[i], want[i])
			}
		}
	}
	if _, _, err := BuildAllSectors(v, Raw{}, 1, 5); err == nil {
		t.Fatal("invalid window accepted")
	}
}

func TestExtractorsOnSyntheticData(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Sectors = 40
	cfg.Weeks = 4
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := score.Compute(ds.K, score.DefaultWeighting())
	v, err := NewView(ds.K, ds.Grid.Calendar(), set.Sh, set.Sd, set.Sw, set.Yd)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []Extractor{Raw{}, Percentiles{}, HandCrafted{}} {
		out := make([]float64, ex.Width(v, 7))
		ex.Extract(v, 3, 14, 7, nil, out)
		for i, val := range out {
			if math.IsNaN(val) || math.IsInf(val, 0) {
				t.Fatalf("%s: non-finite feature at %d", ex.Name(), i)
			}
		}
	}
}

func TestChannelName(t *testing.T) {
	v := tinyView(t)
	name := func(k int) string { return simnet.KPIName(k) }
	if got := v.ChannelName(0, name); got != simnet.KPIName(0) {
		t.Fatalf("KPI name = %q", got)
	}
	if got := v.ChannelName(3, name); got != "cal:hour-of-day" {
		t.Fatalf("calendar name = %q", got)
	}
	if got := v.ChannelName(3+5, name); got != "score:Sh" {
		t.Fatalf("Sh name = %q", got)
	}
	if got := v.ChannelName(3+5+3, name); got != "label:Yd" {
		t.Fatalf("Yd name = %q", got)
	}
}

// TestByName: every extractor resolves from its own Name (the mapping a
// loaded model artifact uses to rebuild features), unknown names error.
func TestByName(t *testing.T) {
	for _, ex := range []Extractor{Raw{}, Percentiles{}, HandCrafted{}} {
		got, err := ByName(ex.Name())
		if err != nil {
			t.Fatalf("%s: %v", ex.Name(), err)
		}
		if got.Name() != ex.Name() {
			t.Fatalf("ByName(%q) resolved %q", ex.Name(), got.Name())
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("unknown extractor accepted")
	}
}

// nanHeavyView builds a TinyScale-sized network (200 sectors, seed 1)
// with about 40% of its KPI cells missing, so every extractor sees long
// runs of the zero fallback and tied order statistics.
func nanHeavyView(t testing.TB) *View {
	t.Helper()
	cfg := simnet.DefaultConfig()
	cfg.Sectors, cfg.Weeks, cfg.Seed = 200, 4, 1
	cfg.MissingTarget = 0.4
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	for _, x := range ds.K.Data {
		if math.IsNaN(x) {
			missing++
		}
	}
	if frac := float64(missing) / float64(len(ds.K.Data)); frac < 0.25 {
		t.Fatalf("only %.2f of KPI cells missing", frac)
	}
	set := score.Compute(ds.K, score.DefaultWeighting())
	v, err := NewView(ds.K, ds.Grid.Calendar(), set.Sh, set.Sd, set.Sw, set.Yd)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// projections returns column sets over a width-wide vector: the first and
// last columns alone, isolated columns between runs, runs straddling the
// percentile (5) and hand-crafted (106) group boundaries, a sparse stride,
// and every column.
func projections(width int) [][]int32 {
	pick := func(cs ...int) []int32 {
		var out []int32
		for _, c := range cs {
			if c >= 0 && c < width && (len(out) == 0 || int32(c) > out[len(out)-1]) {
				out = append(out, int32(c))
			}
		}
		return out
	}
	all := make([]int32, width)
	stride := []int32{}
	for c := range all {
		all[c] = int32(c)
		if c%37 == 3 {
			stride = append(stride, int32(c))
		}
	}
	return [][]int32{
		pick(0),
		pick(width - 1),
		pick(0, width-1),
		pick(0, 1, 4, 5, 6, 50, 105, 106, 107, width/2, width-2, width-1),
		stride,
		all,
	}
}

// TestProjectedBuildMatchesGather: a projected Extract equals gathering
// its columns from the full Extract, bit for bit, for every extractor.
func TestProjectedBuildMatchesGather(t *testing.T) {
	v := nanHeavyView(t)
	const end, w = 14, 7
	for _, ex := range []Extractor{Raw{}, Percentiles{}, HandCrafted{}} {
		width := ex.Width(v, w)
		full := make([]float64, width)
		for _, cols := range projections(width) {
			got := make([]float64, len(cols))
			for i := 0; i < v.Sectors(); i++ {
				ex.Extract(v, i, end, w, nil, full)
				ex.Extract(v, i, end, w, cols, got)
				for k, c := range cols {
					if a, b := got[k], full[c]; math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s: sector %d column %d: projected %v, full %v", ex.Name(), i, c, a, b)
					}
				}
			}
		}
	}
}

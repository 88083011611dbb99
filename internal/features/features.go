// Package features assembles the forecasting input tensor X of Eq. 5 and
// the three feature representations the paper's classifiers consume:
//
//   - RF-R: the raw hourly window, flattened;
//   - RF-F1: five daily percentiles (5/25/50/75/95) per channel and day;
//   - RF-F2: hand-crafted summaries (whole/half-window statistics and their
//     differences, average and extreme day/week profiles, and the raw last
//     day plus its statistics).
//
// X concatenates, along the feature axis: the l KPIs, the 5 calendar
// columns, the hourly score S^h, the upsampled daily score S^d, the
// upsampled weekly score S^w, and the upsampled daily labels Y^d — a total
// of l+9 channels (30 for the paper's l = 21).
//
// To avoid materialising the full n x mh x 30 tensor (hundreds of MB at
// experiment scale), View exposes X virtually over its component arrays;
// Materialize builds the explicit tensor for tests and small data.
package features

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/timegrid"
)

// Channel index helpers for the layout of Eq. 5. The paper's
// feature-importance plots use 1-based k; these constants are 0-based
// offsets from the KPI count l.
const (
	// CalendarChannels is the number of calendar columns.
	CalendarChannels = timegrid.CalCols
)

// View is a virtual Eq. 5 tensor: element (i, j, c) dispatches to the
// underlying component arrays. All component matrices must share the sector
// axis; Sh is hourly, Sd daily, Sw weekly, Yd daily.
type View struct {
	K  *tensor.Tensor3 // n x mh x l KPIs
	C  *tensor.Matrix  // mh x 5 calendar
	Sh *tensor.Matrix  // n x mh
	Sd *tensor.Matrix  // n x md
	Sw *tensor.Matrix  // n x mw
	Yd *tensor.Matrix  // n x md
}

// NewView validates shapes and builds a View.
func NewView(k *tensor.Tensor3, c *tensor.Matrix, sh, sd, sw, yd *tensor.Matrix) (*View, error) {
	n, mh := k.N, k.T
	if c.Rows != mh || c.Cols != CalendarChannels {
		return nil, fmt.Errorf("features: calendar is %dx%d, want %dx%d", c.Rows, c.Cols, mh, CalendarChannels)
	}
	if sh.Rows != n || sh.Cols != mh {
		return nil, fmt.Errorf("features: Sh is %dx%d, want %dx%d", sh.Rows, sh.Cols, n, mh)
	}
	md := mh / timegrid.HoursPerDay
	mw := mh / timegrid.HoursPerWeek
	if sd.Rows != n || sd.Cols != md {
		return nil, fmt.Errorf("features: Sd is %dx%d, want %dx%d", sd.Rows, sd.Cols, n, md)
	}
	if sw.Rows != n || sw.Cols != mw {
		return nil, fmt.Errorf("features: Sw is %dx%d, want %dx%d", sw.Rows, sw.Cols, n, mw)
	}
	if yd.Rows != n || yd.Cols != md {
		return nil, fmt.Errorf("features: Yd is %dx%d, want %dx%d", yd.Rows, yd.Cols, n, md)
	}
	return &View{K: k, C: c, Sh: sh, Sd: sd, Sw: sw, Yd: yd}, nil
}

// Channels returns the total channel count l+9.
func (v *View) Channels() int { return v.K.F + CalendarChannels + 4 }

// Sectors returns n.
func (v *View) Sectors() int { return v.K.N }

// Hours returns mh.
func (v *View) Hours() int { return v.K.T }

// At returns X[i, j, c] with NaN replaced by 0 so the tree learners always
// see finite values (the pipeline imputes KPIs first; the zero fallback
// covers residual gaps).
func (v *View) At(i, j, c int) float64 {
	sv := v.sector(i)
	return sv.at(j, c)
}

// sectorView is sector i of X with its component rows looked up once, so
// a loop over one sector's window reads plain slices.
type sectorView struct {
	k              []float64 // mh x l KPIs
	l              int
	cal            *tensor.Matrix
	sh, sd, sw, yd []float64
}

// sector returns sector i of X.
func (v *View) sector(i int) sectorView {
	return sectorView{k: v.K.Sector(i), l: v.K.F, cal: v.C,
		sh: v.Sh.Row(i), sd: v.Sd.Row(i), sw: v.Sw.Row(i), yd: v.Yd.Row(i)}
}

// at is View.At for the view's sector.
func (sv *sectorView) at(j, c int) float64 {
	l := sv.l
	var val float64
	switch {
	case c < l:
		val = sv.k[j*l+c]
	case c < l+CalendarChannels:
		val = sv.cal.At(j, c-l)
	case c == l+CalendarChannels:
		val = sv.sh[j]
	case c == l+CalendarChannels+1:
		val = sv.sd[timegrid.DayOfHour(j)]
	case c == l+CalendarChannels+2:
		val = sv.sw[timegrid.WeekOfHour(j)]
	case c == l+CalendarChannels+3:
		val = sv.yd[timegrid.DayOfHour(j)]
	default:
		panic(fmt.Sprintf("features: channel %d out of range", c))
	}
	if math.IsNaN(val) {
		return 0
	}
	return val
}

// ChannelName returns a human-readable name for channel c given KPI names;
// experiment output prints the paper's 1-based k alongside.
func (v *View) ChannelName(c int, kpiName func(int) string) string {
	l := v.K.F
	switch {
	case c < l:
		return kpiName(c)
	case c < l+CalendarChannels:
		return []string{"cal:hour-of-day", "cal:day-of-week", "cal:day-of-month", "cal:weekend", "cal:holiday"}[c-l]
	case c == l+CalendarChannels:
		return "score:Sh"
	case c == l+CalendarChannels+1:
		return "score:Sd"
	case c == l+CalendarChannels+2:
		return "score:Sw"
	default:
		return "label:Yd"
	}
}

// Materialize builds the explicit Eq. 5 tensor. Intended for tests and
// small datasets; experiment-scale data should stay on the View.
func (v *View) Materialize() *tensor.Tensor3 {
	parts := []*tensor.Tensor3{
		v.K,
		tensor.RepeatRows(v.K.N, v.C),
		tensor.MatrixToTensor(v.Sh),
		tensor.UpsampleMatrix(timegrid.HoursPerDay, v.Sd),
		tensor.UpsampleMatrix(timegrid.HoursPerWeek, v.Sw),
		tensor.UpsampleMatrix(timegrid.HoursPerDay, v.Yd),
	}
	return tensor.ConcatFeatures(parts...)
}

// Extractor turns a (sector, window) slice of X into a flat feature vector.
// Implementations must be deterministic and return vectors of constant
// Width for a fixed window length.
//
// Extraction can be projected onto a subset of the vector's columns: a
// model that splits on a few features needs only those, and computing
// them alone is bit-identical to gathering them from the full vector.
type Extractor interface {
	// Name identifies the representation (raw / percentiles / handcrafted).
	Name() string
	// Width returns the vector length for a window of w days.
	Width(v *View, w int) int
	// Extract writes features of sector i for the window of w days ending
	// (exclusive) at day end into out. cols selects the features as
	// strictly ascending indices below Width, out[k] receiving feature
	// cols[k]; nil selects all Width of them. In steady state Extract
	// allocates nothing.
	Extract(v *View, i, end, w int, cols []int32, out []float64)
}

// ByName resolves an extractor from its Name, the inverse used when a
// serialized model artifact is loaded and must rebuild its feature
// representation at predict time.
func ByName(name string) (Extractor, error) {
	switch name {
	case Raw{}.Name():
		return Raw{}, nil
	case Percentiles{}.Name():
		return Percentiles{}, nil
	case HandCrafted{}.Name():
		return HandCrafted{}, nil
	default:
		return nil, fmt.Errorf("features: unknown extractor %q", name)
	}
}

// windowBounds converts (end-exclusive day, w days) to an hour range.
func windowBounds(end, w int) (h0, h1 int) {
	return (end - w) * timegrid.HoursPerDay, end * timegrid.HoursPerDay
}

// CheckWindow validates that the window fits in the grid.
func CheckWindow(v *View, end, w int) error {
	h0, h1 := windowBounds(end, w)
	if w < 1 {
		return fmt.Errorf("features: window %d < 1", w)
	}
	if h0 < 0 || h1 > v.Hours() {
		return fmt.Errorf("features: window days [%d,%d) outside grid of %d days", end-w, end, v.Hours()/timegrid.HoursPerDay)
	}
	return nil
}

// Raw is the RF-R representation: the window flattened hour-major
// (24*w*channels values).
type Raw struct{}

// Name implements Extractor.
func (Raw) Name() string { return "raw" }

// Width implements Extractor.
func (Raw) Width(v *View, w int) int { return w * timegrid.HoursPerDay * v.Channels() }

// Extract implements Extractor; a projected column is one cell of X.
func (Raw) Extract(v *View, i, end, w int, cols []int32, out []float64) {
	h0, h1 := windowBounds(end, w)
	ch := v.Channels()
	sv := v.sector(i)
	if cols != nil {
		for k, col := range cols {
			out[k] = sv.at(h0+int(col)/ch, int(col)%ch)
		}
		return
	}
	pos := 0
	for j := h0; j < h1; j++ {
		for c := 0; c < ch; c++ {
			out[pos] = sv.at(j, c)
			pos++
		}
	}
}

// Percentiles is the RF-F1 representation: for every channel and every day
// of the window, the 5/25/50/75/95 percentiles of the day's 24 hourly
// values — reducing each day from 24 to 5 values, as in Sec. IV-D.
type Percentiles struct{}

// percentileLevels are the paper's five daily percentile estimators.
var percentileLevels = [...]float64{5, 25, 50, 75, 95}

// Name implements Extractor.
func (Percentiles) Name() string { return "percentiles" }

// Width implements Extractor.
func (Percentiles) Width(v *View, w int) int { return w * len(percentileLevels) * v.Channels() }

// Extract implements Extractor. Features come in (day, channel) groups of
// five; a projection computes each group it touches once.
func (Percentiles) Extract(v *View, i, end, w int, cols []int32, out []float64) {
	ch := v.Channels()
	np := len(percentileLevels)
	sv := v.sector(i)
	if cols == nil {
		for g := 0; g < w*ch; g++ {
			dailyPercentiles(&sv, end-w, g, ch, out[g*np:(g+1)*np])
		}
		return
	}
	var ps [len(percentileLevels)]float64
	last := -1
	for k, col := range cols {
		if g := int(col) / np; g != last {
			dailyPercentiles(&sv, end-w, g, ch, ps[:])
			last = g
		}
		out[k] = ps[int(col)%np]
	}
}

// dailyPercentiles writes the five percentiles of feature group g — day
// first+g/ch of the window, channel g%ch — into out.
func dailyPercentiles(sv *sectorView, first, g, ch int, out []float64) {
	var day [timegrid.HoursPerDay]float64
	base := (first + g/ch) * timegrid.HoursPerDay
	c := g % ch
	for h := range day {
		day[h] = sv.at(base+h, c)
	}
	mathx.PercentilesInto(out, day[:], percentileLevels[:])
}

// HandCrafted is the RF-F2 representation (Sec. IV-D): per channel it emits
//
//	 4  whole-window mean/std/min/max
//	 4  first-half statistics
//	 4  second-half statistics
//	 4  second-half minus first-half differences
//	24  average day profile
//	 7  average week profile (day-of-week means)
//	 2  profile differences (peak-to-trough of day and week profiles)
//	24  extreme (max) day profile
//	 7  extreme (max) week profile
//	24  raw values of the last day
//	 2  last-day mean and std
//
// for a total of 106 values per channel. This set subsumes the Persistence,
// Average and Trend baselines, as the paper notes.
type HandCrafted struct{}

const handCraftedPerChannel = 4 + 4 + 4 + 4 + 24 + 7 + 2 + 24 + 7 + 24 + 2

// Name implements Extractor.
func (HandCrafted) Name() string { return "handcrafted" }

// Width implements Extractor.
func (HandCrafted) Width(v *View, w int) int { return handCraftedPerChannel * v.Channels() }

// seriesPool recycles HandCrafted's hourly series buffer across sectors
// and builds, so extraction allocates nothing in steady state.
var seriesPool = sync.Pool{New: func() any { return new([]float64) }}

// Extract implements Extractor. Features come in per-channel groups of
// 106; a projection computes each channel it touches once.
func (HandCrafted) Extract(v *View, i, end, w int, cols []int32, out []float64) {
	ch := v.Channels()
	h0, h1 := windowBounds(end, w)
	buf := seriesPool.Get().(*[]float64)
	if cap(*buf) < h1-h0 {
		*buf = make([]float64, h1-h0)
	}
	series := (*buf)[:h1-h0]
	sv := v.sector(i)
	fill := func(c int) {
		for j := h0; j < h1; j++ {
			series[j-h0] = sv.at(j, c)
		}
	}
	if cols == nil {
		pos := 0
		for c := 0; c < ch; c++ {
			fill(c)
			pos = emitHandCrafted(series, out, pos)
		}
	} else {
		var group [handCraftedPerChannel]float64
		last := -1
		for k, col := range cols {
			if c := int(col) / handCraftedPerChannel; c != last {
				fill(c)
				emitHandCrafted(series, group[:], 0)
				last = c
			}
			out[k] = group[int(col)%handCraftedPerChannel]
		}
	}
	seriesPool.Put(buf)
}

// emitHandCrafted writes the 106 per-channel features from an hourly series
// whose length is a multiple of 24.
func emitHandCrafted(series []float64, out []float64, pos int) int {
	n := len(series)
	half := n / 2
	stats4 := func(xs []float64) (m, s, lo, hi float64) {
		m = mathx.Mean(xs)
		s = mathx.Std(xs)
		lo, hi = mathx.MinMax(xs)
		return sanitize(m), sanitize(s), sanitize(lo), sanitize(hi)
	}
	m, s, lo, hi := stats4(series)
	m1, s1, lo1, hi1 := stats4(series[:half])
	m2, s2, lo2, hi2 := stats4(series[half:])
	out[pos+0], out[pos+1], out[pos+2], out[pos+3] = m, s, lo, hi
	out[pos+4], out[pos+5], out[pos+6], out[pos+7] = m1, s1, lo1, hi1
	out[pos+8], out[pos+9], out[pos+10], out[pos+11] = m2, s2, lo2, hi2
	out[pos+12], out[pos+13] = m2-m1, s2-s1
	out[pos+14], out[pos+15] = lo2-lo1, hi2-hi1
	pos += 16

	// Average and extreme day profiles.
	days := n / timegrid.HoursPerDay
	for h := 0; h < timegrid.HoursPerDay; h++ {
		sum, mx := 0.0, math.Inf(-1)
		for d := 0; d < days; d++ {
			v := series[d*timegrid.HoursPerDay+h]
			sum += v
			if v > mx {
				mx = v
			}
		}
		out[pos+h] = sum / float64(days)
		out[pos+24+7+2+h] = mx
	}
	// Average and extreme week profiles (day-of-week daily means/maxima;
	// when the window is shorter than a week, absent weekdays emit 0).
	for dow := 0; dow < 7; dow++ {
		sum, mx, cnt := 0.0, math.Inf(-1), 0
		for d := dow; d < days; d += 7 {
			dm := mathx.Mean(series[d*timegrid.HoursPerDay : (d+1)*timegrid.HoursPerDay])
			sum += dm
			cnt++
			if dm > mx {
				mx = dm
			}
		}
		if cnt == 0 {
			out[pos+24+dow] = 0
			out[pos+24+7+2+24+dow] = 0
			continue
		}
		out[pos+24+dow] = sum / float64(cnt)
		out[pos+24+7+2+24+dow] = mx
	}
	// Profile differences: peak-to-trough of the two average profiles.
	dayLo, dayHi := mathx.MinMax(out[pos : pos+24])
	weekLo, weekHi := mathx.MinMax(out[pos+24 : pos+24+7])
	out[pos+24+7] = sanitize(dayHi - dayLo)
	out[pos+24+7+1] = sanitize(weekHi - weekLo)
	pos += 24 + 7 + 2 + 24 + 7

	// Raw last day plus statistics.
	last := series[n-timegrid.HoursPerDay:]
	copy(out[pos:pos+timegrid.HoursPerDay], last)
	pos += timegrid.HoursPerDay
	out[pos] = sanitize(mathx.Mean(last))
	out[pos+1] = sanitize(mathx.Std(last))
	return pos + 2
}

func sanitize(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// buildChunkRows is how many instances one BuildMatrix task extracts.
const buildChunkRows = 64

// BuildMatrix extracts features for several (sector, end-day) instances into
// one row-major matrix suitable for mltree, on up to workers goroutines
// (<= 0 means GOMAXPROCS). Each row is extracted on its own into its own
// slot, so the matrix is bit-identical at any worker count. Empty instance
// slices yield an empty matrix (width still reported), not an error.
func BuildMatrix(v *View, ex Extractor, sectors []int, ends []int, w, workers int) ([]float64, int, error) {
	if len(sectors) != len(ends) {
		return nil, 0, fmt.Errorf("features: %d sectors vs %d end days", len(sectors), len(ends))
	}
	// Every window is checked before sizing the matrix: a negative w would
	// make the extractor report a negative width and panic the allocation.
	if w < 1 {
		return nil, 0, fmt.Errorf("features: window %d < 1", w)
	}
	for _, end := range ends {
		if err := CheckWindow(v, end, w); err != nil {
			return nil, 0, err
		}
	}
	n, width := len(sectors), ex.Width(v, w)
	out := make([]float64, n*width)
	err := parallel.For(workers, (n+buildChunkRows-1)/buildChunkRows, func(k int) error {
		for r := k * buildChunkRows; r < min(n, (k+1)*buildChunkRows); r++ {
			ex.Extract(v, sectors[r], ends[r], w, nil, out[r*width:(r+1)*width])
		}
		return nil
	})
	return out, width, err
}

// BuildAllSectors extracts features for every sector over the same window
// (w days ending exclusively at day end) — the uniform build the feature
// cache stores and shares between grid points. It is value-identical to
// BuildMatrix over sectors 0..n-1 with a constant end day.
func BuildAllSectors(v *View, ex Extractor, end, w int) ([]float64, int, error) {
	if err := CheckWindow(v, end, w); err != nil {
		return nil, 0, err
	}
	n, width := v.Sectors(), ex.Width(v, w)
	out := make([]float64, n*width)
	for i := 0; i < n; i++ {
		ex.Extract(v, i, end, w, nil, out[i*width:(i+1)*width])
	}
	return out, width, nil
}

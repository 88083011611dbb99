package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dynamics"
	"repro/internal/impute"
	"repro/internal/mathx"
	"repro/internal/randx"
	"repro/internal/simnet"
	"repro/internal/spatial"
	"repro/internal/stats"
	"repro/internal/tensor"
	"repro/internal/timegrid"
)

// Series is a labelled numeric series used by textual figure output.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// sparkline renders a crude ASCII profile of a series.
func sparkline(ys []float64) string {
	marks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := mathx.MinMax(ys)
	if math.IsNaN(lo) || hi == lo {
		return strings.Repeat("▁", len(ys))
	}
	var b strings.Builder
	for _, y := range ys {
		if math.IsNaN(y) {
			b.WriteRune('·')
			continue
		}
		idx := int((y - lo) / (hi - lo) * float64(len(marks)-1))
		b.WriteRune(marks[idx])
	}
	return b.String()
}

// Fig01Result holds example KPI series: a voice KPI with weekly regularity
// and a data KPI with a sporadic commercial peak (Fig. 1).
type Fig01Result struct {
	VoiceSector, DataSector int
	Voice, Data             Series
	// PeakDay is the day index of the data KPI's strongest hour, expected
	// to fall on a retail event for a commercial sector.
	PeakDay int
}

// Fig01KPIExamples picks a business-area sector for the voice-blocking KPI
// and a commercial-area sector for the throughput-degradation KPI.
func Fig01KPIExamples(env *Env) *Fig01Result {
	res := &Fig01Result{VoiceSector: -1, DataSector: -1}
	for _, sec := range env.Dataset.Topo.Sectors {
		if res.VoiceSector < 0 && sec.Class == simnet.Business {
			res.VoiceSector = sec.ID
		}
		if res.DataSector < 0 && sec.Class == simnet.Commercial {
			res.DataSector = sec.ID
		}
	}
	if res.VoiceSector < 0 {
		res.VoiceSector = 0
	}
	if res.DataSector < 0 {
		res.DataSector = len(env.Dataset.Topo.Sectors) - 1
	}
	// Voice blocking is KPI 0 (paper k=1); throughput degradation is KPI 18
	// (paper k=19).
	voice := env.Dataset.K.SeriesCopy(res.VoiceSector, 0)
	data := env.Dataset.K.SeriesCopy(res.DataSector, 18)
	res.Voice = Series{Label: simnet.KPIName(0), Y: voice}
	res.Data = Series{Label: simnet.KPIName(18), Y: data}
	best, bestV := 0, math.Inf(-1)
	for j, v := range data {
		if !math.IsNaN(v) && v > bestV {
			best, bestV = j, v
		}
	}
	res.PeakDay = timegrid.DayOfHour(best)
	return res
}

// Format renders Fig. 1 as weekly-averaged sparklines.
func (r *Fig01Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 1A  %s (sector %d, hourly, daily means):\n  %s\n",
		r.Voice.Label, r.VoiceSector, sparkline(dailyMeans(r.Voice.Y)))
	fmt.Fprintf(&b, "Fig 1B  %s (sector %d, hourly, daily means; peak on day %d):\n  %s\n",
		r.Data.Label, r.DataSector, r.PeakDay, sparkline(dailyMeans(r.Data.Y)))
	return b.String()
}

func dailyMeans(hourly []float64) []float64 {
	days := len(hourly) / timegrid.HoursPerDay
	out := make([]float64, days)
	for d := 0; d < days; d++ {
		out[d] = mathx.Mean(hourly[d*timegrid.HoursPerDay : (d+1)*timegrid.HoursPerDay])
	}
	return out
}

// Fig02Result is a sector's daily score and label series with off-day
// shading information (Fig. 2).
type Fig02Result struct {
	Sector  int
	Sd      []float64
	Yd      []float64
	OffDays []bool
}

// Fig02ScoreAndLabel picks a weekly-pattern sector and extracts its series.
func Fig02ScoreAndLabel(env *Env) *Fig02Result {
	sector := 0
	bestDays := -1
	for _, sec := range env.Dataset.Topo.Sectors {
		if sec.Profile != simnet.WeeklyPattern {
			continue
		}
		hot := 0
		for d := 0; d < env.Ctx.Days(); d++ {
			if env.Set.Yd.At(sec.ID, d) > 0 {
				hot++
			}
		}
		// Prefer a sector hot a moderate number of days (a readable plot).
		if hot > 10 && (bestDays < 0 || hot < bestDays) {
			sector, bestDays = sec.ID, hot
		}
	}
	days := env.Ctx.Days()
	res := &Fig02Result{Sector: sector, OffDays: make([]bool, days)}
	res.Sd = env.Set.Sd.Row(sector)
	res.Yd = env.Set.Yd.Row(sector)
	for d := 0; d < days; d++ {
		res.OffDays[d] = env.Dataset.Grid.IsOffDay(d)
	}
	return res
}

// Format renders the two panels.
func (r *Fig02Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 2A  sector %d daily score Sd:\n  %s\n", r.Sector, sparkline(r.Sd))
	var label strings.Builder
	for d, v := range r.Yd {
		switch {
		case v > 0:
			label.WriteByte('#')
		case r.OffDays[d]:
			label.WriteByte('~')
		default:
			label.WriteByte('.')
		}
	}
	fmt.Fprintf(&b, "Fig 2B  hot-spot label Yd (# hot, ~ weekend/holiday, . cold):\n  %s\n", label.String())
	return b.String()
}

// Fig03Result summarises the 500-sector label raster (Fig. 3).
type Fig03Result struct {
	Sectors     int
	Days        int
	HotFraction float64
	// RowsSample holds a handful of raster rows for display.
	RowsSample []string
}

// Fig03LabelRaster samples up to 500 sectors and rasterises Yd.
func Fig03LabelRaster(env *Env) *Fig03Result {
	rng := randx.New(env.Scale.Seed, 0xf16)
	n := env.Ctx.Sectors()
	count := 500
	if count > n {
		count = n
	}
	rows := rng.SampleWithoutReplacement(n, count)
	days := env.Ctx.Days()
	hot := 0
	var sample []string
	for ri, i := range rows {
		var sb strings.Builder
		for d := 0; d < days; d++ {
			if env.Set.Yd.At(i, d) > 0 {
				hot++
				sb.WriteByte('#')
			} else {
				sb.WriteByte('.')
			}
		}
		if ri < 12 {
			sample = append(sample, sb.String())
		}
	}
	return &Fig03Result{
		Sectors:     count,
		Days:        days,
		HotFraction: float64(hot) / float64(count*days),
		RowsSample:  sample,
	}
}

// Format renders the raster sample.
func (r *Fig03Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 3  label raster: %d sectors x %d days, hot fraction %.3f (12-row sample):\n",
		r.Sectors, r.Days, r.HotFraction)
	for _, row := range r.RowsSample {
		fmt.Fprintf(&b, "  %s\n", row)
	}
	return b.String()
}

// Fig04Result is the log-histogram of the rescaled weekly score (Fig. 4).
type Fig04Result struct {
	BinEdges  []float64
	RelCounts []float64
	// ValleyNearThreshold reports whether the histogram has a local minimum
	// in the 0.5-0.65 band, the paper's "natural threshold" at ~0.6.
	ValleyNearThreshold bool
}

// Fig04ScoreHistogram computes the 40-bin histogram of Sw.
func Fig04ScoreHistogram(env *Env) *Fig04Result {
	edges := mathx.Linspace(0, 1, 41)[:40]
	counts := mathx.Histogram(edges, env.Set.Sw.Data)
	rel := mathx.NormalizeCounts(counts)
	// Valley test: min in [0.5, 0.65) below the mass on both sides.
	valleyIdx, valley := -1, math.Inf(1)
	for i, e := range edges {
		if e >= 0.5 && e < 0.65 && rel[i] < valley {
			valleyIdx, valley = i, rel[i]
		}
	}
	leftMass, rightMass := 0.0, 0.0
	for i, e := range edges {
		if e < 0.5 {
			leftMass = math.Max(leftMass, rel[i])
		}
		if e >= 0.65 {
			rightMass = math.Max(rightMass, rel[i])
		}
	}
	return &Fig04Result{
		BinEdges:            edges,
		RelCounts:           rel,
		ValleyNearThreshold: valleyIdx >= 0 && valley < leftMass && valley < rightMass,
	}
}

// Format renders the histogram on a log-ish scale.
func (r *Fig04Result) Format() string {
	var b strings.Builder
	logged := make([]float64, len(r.RelCounts))
	for i, v := range r.RelCounts {
		if v > 0 {
			logged[i] = math.Log10(v) + 6
		}
	}
	fmt.Fprintf(&b, "Fig 4  log-histogram of weekly score Sw (valley near 0.6: %v):\n  %s\n",
		r.ValleyNearThreshold, sparkline(logged))
	return b.String()
}

// Fig05Result compares imputation methods (Fig. 5 shows example
// reconstructions; we report hidden-entry RMSE per method).
type Fig05Result struct {
	MissingBefore float64
	RMSE          map[string]float64
}

// Fig05Imputation trains a small autoencoder on a KPI subset and compares
// hidden-entry reconstruction error against forward fill and linear
// interpolation. The subset keeps the experiment tractable: the paper's
// full 168x21 slice autoencoder has ~25M parameters.
func Fig05Imputation(env *Env) (*Fig05Result, error) {
	k := env.Dataset.K
	// Subset: up to 40 sectors, 6 KPIs spread over the catalogue.
	nSub := 40
	if k.N < nSub {
		nSub = k.N
	}
	kpiIdx := []int{0, 5, 7, 8, 13, 18}
	sub := tensor.NewTensor3(nSub, k.T, len(kpiIdx))
	for i := 0; i < nSub; i++ {
		for j := 0; j < k.T; j++ {
			for fi, f := range kpiIdx {
				sub.Set(i, j, fi, k.At(i, j, f))
			}
		}
	}
	cfg := impute.DefaultConfig()
	cfg.Seed = env.Scale.Seed
	cfg.Depth = 3
	cfg.Epochs = 6
	cfg.LearningRate = 5e-4
	im, err := impute.Train(sub, cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig05Result{MissingBefore: sub.MissingFraction(), RMSE: map[string]float64{}}
	ae, err := impute.Evaluate(sub, 0.03, env.Scale.Seed, im.Impute)
	if err != nil {
		return nil, err
	}
	ff, err := impute.Evaluate(sub, 0.03, env.Scale.Seed, impute.Wrap(impute.ForwardFill))
	if err != nil {
		return nil, err
	}
	li, err := impute.Evaluate(sub, 0.03, env.Scale.Seed, impute.Wrap(impute.LinearInterpolate))
	if err != nil {
		return nil, err
	}
	res.RMSE["autoencoder"] = ae
	res.RMSE["forward-fill"] = ff
	res.RMSE["linear-interp"] = li
	return res, nil
}

// Format renders the comparison.
func (r *Fig05Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5  imputation (missing before: %.3f; normalised RMSE on hidden entries):\n", r.MissingBefore)
	for _, name := range []string{"autoencoder", "forward-fill", "linear-interp"} {
		fmt.Fprintf(&b, "  %-14s %.3f\n", name, r.RMSE[name])
	}
	return b.String()
}

// Fig06Result holds the three hot-spot duration histograms (Fig. 6).
type Fig06Result struct {
	HoursPerDay []float64
	DaysPerWeek []float64
	Weeks       []float64
	// ModalHours is the most frequent multi-hour "hours per day" count;
	// the paper finds a threshold at 16 hours.
	ModalHours int
	// ModalDays is the most frequent days-per-week count (paper: 1).
	ModalDays int
}

// Fig06HotSpotHistograms computes all three panels.
func Fig06HotSpotHistograms(env *Env) *Fig06Result {
	res := &Fig06Result{
		HoursPerDay: dynamics.HoursPerDayHistogram(env.HourlyLabels()),
		DaysPerWeek: dynamics.DaysPerWeekHistogram(env.Set.Yd),
		Weeks:       dynamics.WeeksHistogram(env.WeeklyLabels()),
	}
	best := 3
	for h := 4; h < len(res.HoursPerDay); h++ {
		if res.HoursPerDay[h] > res.HoursPerDay[best] {
			best = h
		}
	}
	res.ModalHours = best + 1
	bestD := 0
	for d := range res.DaysPerWeek {
		if res.DaysPerWeek[d] > res.DaysPerWeek[bestD] {
			bestD = d
		}
	}
	res.ModalDays = bestD + 1
	return res
}

// Format renders the three histograms.
func (r *Fig06Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 6A hours/day as hot spot (mode %dh):\n  %s\n", r.ModalHours, sparkline(logify(r.HoursPerDay)))
	fmt.Fprintf(&b, "Fig 6B days/week as hot spot (mode %dd):\n  %s\n", r.ModalDays, sparkline(r.DaysPerWeek))
	fmt.Fprintf(&b, "Fig 6C weeks as hot spot:\n  %s\n", sparkline(r.Weeks))
	return b.String()
}

func logify(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, v := range xs {
		if v > 0 {
			out[i] = math.Log10(v) + 7
		}
	}
	return out
}

// Fig07Result holds the consecutive-run histograms (Fig. 7).
type Fig07Result struct {
	ConsecutiveHours []float64 // up to 90 hours
	ConsecutiveDays  []float64 // up to 70 days
	// Peak16h reports whether 16-hour runs locally dominate (Fig. 7A).
	Peak16h bool
	// SevenXPlus6 reports whether day runs at 13 or 20 exceed their
	// immediate neighbours (the paper's 7x+6 signature).
	SevenXPlus6 bool
}

// Fig07ConsecutiveRuns computes both panels.
func Fig07ConsecutiveRuns(env *Env) *Fig07Result {
	hours := dynamics.RunHistogram(dynamics.RunLengths(env.HourlyLabels()), 90)
	days := dynamics.RunHistogram(dynamics.RunLengths(env.Set.Yd), 70)
	res := &Fig07Result{ConsecutiveHours: hours, ConsecutiveDays: days}
	res.Peak16h = hours[15] > hours[14] && hours[15] > hours[16]
	peak := func(idx int) bool {
		if idx < 1 || idx+1 >= len(days) {
			return false
		}
		return days[idx] > days[idx-1] && days[idx] >= days[idx+1]
	}
	res.SevenXPlus6 = peak(12) || peak(19) // runs of 13 or 20 days
	return res
}

// Format renders both panels.
func (r *Fig07Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7A consecutive hours as hot spot (16h peak: %v):\n  %s\n", r.Peak16h, sparkline(logify(r.ConsecutiveHours)))
	fmt.Fprintf(&b, "Fig 7B consecutive days as hot spot (7x+6 signature: %v):\n  %s\n", r.SevenXPlus6, sparkline(logify(r.ConsecutiveDays)))
	return b.String()
}

// Tab02Result is the Table II reproduction.
type Tab02Result struct {
	Patterns []dynamics.PatternCount
	// Consistency is the weekly-pattern temporal consistency summary the
	// paper reports alongside Table II (mean 0.6; percentiles -0.09, 0.41,
	// 0.68, 0.88, 1).
	Consistency dynamics.ConsistencyStats
}

// Tab02WeeklyPatterns mines the top-20 weekly patterns.
func Tab02WeeklyPatterns(env *Env) *Tab02Result {
	return &Tab02Result{
		Patterns:    dynamics.WeeklyPatterns(env.Set.Yd, 19),
		Consistency: dynamics.WeeklyConsistency(env.Set.Yd),
	}
}

// Format renders the table plus the consistency line.
func (r *Tab02Result) Format() string {
	var b strings.Builder
	b.WriteString("Table II  top weekly hot-spot patterns:\n")
	b.WriteString(dynamics.FormatTableII(r.Patterns))
	fmt.Fprintf(&b, "weekly-pattern consistency: mean %.2f, p5/p25/p50/p75/p95 = %.2f/%.2f/%.2f/%.2f/%.2f (n=%d)\n",
		r.Consistency.Mean,
		r.Consistency.Percentiles[0], r.Consistency.Percentiles[1], r.Consistency.Percentiles[2],
		r.Consistency.Percentiles[3], r.Consistency.Percentiles[4], r.Consistency.N)
	return b.String()
}

// Fig08Result is the spatial correlation analysis (Fig. 8).
type Fig08Result struct {
	Result *spatial.CorrelationResult
	// ZeroDistanceMedianAvg is the median per-sector average correlation in
	// the same-tower bucket (paper: clearly positive, the highest bucket).
	ZeroDistanceMedianAvg float64
	// FarBestMedian is the median best-of-100 correlation in the farthest
	// populated bucket (paper: ~0.5 at every distance).
	FarBestMedian float64
}

// Fig08SpatialCorrelation runs the correlation-versus-distance analysis on
// hourly labels. Neighbour counts shrink automatically on small networks.
func Fig08SpatialCorrelation(env *Env) *Fig08Result {
	pts := make([]spatial.Point, env.Ctx.Sectors())
	for i, sec := range env.Dataset.Topo.Sectors {
		pts[i] = spatial.Point{X: sec.X, Y: sec.Y}
	}
	cfg := spatial.DefaultCorrelationConfig()
	if env.Ctx.Sectors() < 1000 {
		cfg.NeighborsPerSector = env.Ctx.Sectors() / 2
		cfg.TopCorrelated = env.Ctx.Sectors() / 5
	}
	res := spatial.CorrelationByDistance(env.HourlyLabels(), pts, cfg)
	out := &Fig08Result{Result: res}
	out.ZeroDistanceMedianAvg = res.Average[0].Stats.Median
	for b := len(res.Best) - 1; b >= 0; b-- {
		if res.Best[b].Stats.N > 0 {
			out.FarBestMedian = res.Best[b].Stats.Median
			break
		}
	}
	return out
}

// Format renders the three panels as per-bucket medians.
func (r *Fig08Result) Format() string {
	var b strings.Builder
	b.WriteString("Fig 8  correlation vs distance (median [q1,q3] per bucket):\n")
	b.WriteString("  km      avg               max               best-of-top100\n")
	for i := range r.Result.Average {
		a, m, bb := r.Result.Average[i].Stats, r.Result.Maximum[i].Stats, r.Result.Best[i].Stats
		fmt.Fprintf(&b, "  %-7.1f %s %s %s\n",
			r.Result.Average[i].EdgeKM, boxStr(a), boxStr(m), boxStr(bb))
	}
	return b.String()
}

func boxStr(s stats.BoxStats) string {
	if s.N == 0 {
		return "      (empty)     "
	}
	return fmt.Sprintf("%+.2f [%+.2f,%+.2f]", s.Median, s.Q1, s.Q3)
}

// Package score implements the paper's hot-spot scoring chain
// (Sec. II-B): the weighted thresholded combination of KPIs into the hourly
// score S' (Eq. 1), temporal integration into hourly/daily/weekly scores via
// the windowed average mu (Eqs. 2-3), the binary hot-spot labels Y (Eq. 4),
// and the "become a hot spot" labels of Sec. IV-A.
package score

import (
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/timegrid"
)

// Weighting holds the operator's score definition: per-KPI weights Omega and
// thresholds epsilon (Eq. 1), plus the hot-spot threshold applied to the
// rescaled integrated score (Eq. 4). The paper treats all three as domain
// constants refined over years of operation.
type Weighting struct {
	Omega   []float64
	Epsilon []float64
	// HotThreshold is the paper's epsilon for Eq. 4, applied to scores
	// rescaled to [0, 1]. Fig. 4 shows the operator value sits at a natural
	// valley near 0.6.
	HotThreshold float64
}

// NewWeighting validates and returns a Weighting. Weights must be finite
// and non-negative, not all zero, and thresholds finite: against an
// infinite or NaN epsilon, v - epsilon is NaN for some or every v, and
// Eq. 1 would silently score that KPI as healthy.
func NewWeighting(omega, epsilon []float64, hotThreshold float64) (*Weighting, error) {
	if len(omega) != len(epsilon) {
		return nil, fmt.Errorf("score: %d weights vs %d thresholds", len(omega), len(epsilon))
	}
	if len(omega) == 0 {
		return nil, fmt.Errorf("score: empty weighting")
	}
	total := 0.0
	for i, w := range omega {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("score: weight %d is %v", i, w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("score: all weights zero")
	}
	for i, e := range epsilon {
		if math.IsNaN(e) || math.IsInf(e, 0) {
			return nil, fmt.Errorf("score: threshold %d is %v", i, e)
		}
	}
	if hotThreshold <= 0 || hotThreshold >= 1 {
		return nil, fmt.Errorf("score: hot threshold %v outside (0,1)", hotThreshold)
	}
	return &Weighting{Omega: omega, Epsilon: epsilon, HotThreshold: hotThreshold}, nil
}

// TotalWeight returns the sum of Omega, the rescaling denominator.
func (w *Weighting) TotalWeight() float64 {
	total := 0.0
	for _, v := range w.Omega {
		total += v
	}
	return total
}

// Hourly computes the rescaled hourly score matrix S' (n x mh) from the KPI
// tensor K (Eq. 1 divided by the total weight, so values lie in [0, 1]).
// Missing KPI values contribute zero to the numerator, matching an operator
// pipeline that treats absent indicators as healthy; the denominator always
// uses the full weight so scores remain comparable across hours. Hours where
// every KPI is missing yield NaN.
func (w *Weighting) Hourly(k *tensor.Tensor3) *tensor.Matrix {
	w.checkKPIs(k)
	out := tensor.NewMatrix(k.N, k.T)
	total := w.TotalWeight()
	// Sectors are independent rows, so they score on the shared pool with
	// results bit-identical at any worker count. The body cannot fail.
	_ = parallel.For(0, k.N, func(i int) error {
		w.scoreSector(out.Row(i), k.Sector(i), total, math.Inf(1))
		return nil
	})
	return out
}

// FilterHourly is FilterSectors and Hourly in one per-sector pass over K
// on the shared pool: each sector's KPIs are read once, both to count its
// missing entries week by week and to score its hours, and a sector stops
// at its first week that breaks the missing-data rule. It returns the
// survivors in ascending order and their S' rows, equal bit for bit to
// FilterSectors(k, maxWeekMissing) and Hourly(k).SelectRows(keep). K
// itself is left as it is. The pass is one read of K in which a KPI value
// below its threshold, as most are, costs one compare (see scoreHours).
func (w *Weighting) FilterHourly(k *tensor.Tensor3, maxWeekMissing float64) (keep []int, sh *tensor.Matrix) {
	w.checkKPIs(k)
	sh = tensor.NewMatrix(k.N, k.T)
	total := w.TotalWeight()
	ok := make([]bool, k.N)
	_ = parallel.For(0, k.N, func(i int) error { // cannot fail
		ok[i] = w.scoreSector(sh.Row(i), k.Sector(i), total, maxWeekMissing)
		return nil
	})
	keep = survivors(ok)
	return keep, sh.SelectRows(keep)
}

// checkKPIs panics unless k has one KPI per weight.
func (w *Weighting) checkKPIs(k *tensor.Tensor3) {
	if k.F != len(w.Omega) {
		panic(fmt.Sprintf("score: tensor has %d KPIs, weighting has %d", k.F, len(w.Omega)))
	}
}

// scoreSector writes the S' row of one sector into row from its KPI
// block sec (one cell of len(w.Omega) KPIs per hour), given the total
// weight, and reports whether the sector passes the missing-data rule
// (see FilterSectors). It scores a week at a time, counting the week's
// missing entries in the same pass, and returns false after the first
// whole week that breaks the rule, with the rest of row unwritten.
func (w *Weighting) scoreSector(row, sec []float64, total, maxWeekMissing float64) bool {
	f := len(w.Omega)
	for lo := 0; lo < len(row); lo += timegrid.HoursPerWeek {
		hi := min(lo+timegrid.HoursPerWeek, len(row))
		missing := w.scoreHours(row[lo:hi], sec[lo*f:hi*f], total)
		if hi-lo == timegrid.HoursPerWeek && weekFails(missing, f, maxWeekMissing) {
			return false
		}
	}
	return true
}

// scoreHours writes the S' of len(row) consecutive hours from their KPI
// cells and returns how many of the cells' entries are missing. Most KPI
// values lie below their threshold, and for those a term costs one
// compare and a well-predicted branch: only a value that is not below
// epsilon takes the path that adds its weight or, for NaN, counts it
// missing. Skipping a below-threshold term leaves out a +0 that would
// not change a sum starting at +0, and the weights are added in KPI
// order, so each hour is bit for bit Eq. 1 evaluated term by term. For a
// finite epsilon (NewWeighting's rule), v >= epsilon is exactly
// H(v - epsilon) = 1.
func (w *Weighting) scoreHours(row, cells []float64, total float64) int {
	omega := w.Omega
	f := len(omega)
	eps := w.Epsilon[:f]
	missing := 0
	for j := range row {
		cell := cells[j*f:][:f]
		sum, miss := 0.0, 0
		for c, v := range cell {
			if !(v < eps[c]) {
				if v != v {
					miss++
				} else {
					sum += omega[c]
				}
			}
		}
		row[j] = sum / total
		if miss == f {
			row[j] = math.NaN()
		}
		missing += miss
	}
	return missing
}

// Mu is the temporal averaging function of Eq. 3: the mean of z over the
// window of length y ending at (and including) x. Indices outside the series
// and NaN entries are skipped; a window with no valid entries yields NaN.
//
// The paper writes the window as sum_{j=x-y}^{x}; we use the y samples
// (x-y, x], i.e. z[x-y+1..x], so that consecutive windows tile the axis
// exactly (Eq. 2 averages disjoint day/week blocks).
func Mu(x, y int, z []float64) float64 {
	if y <= 0 {
		return math.NaN()
	}
	lo := x - y + 1
	if lo < 0 {
		lo = 0
	}
	hi := x
	if hi >= len(z) {
		hi = len(z) - 1
	}
	if hi < lo {
		return math.NaN()
	}
	return mathx.Mean(z[lo : hi+1])
}

// Integrate computes the S^Gamma matrix of Eq. 2 for integration length
// delta (hours): entry (i, j) is the average of the delta hourly scores in
// block j. delta must divide the number of columns. Rows run on the
// shared pool.
func Integrate(hourly *tensor.Matrix, delta int) *tensor.Matrix {
	if delta <= 0 || hourly.Cols%delta != 0 {
		panic(fmt.Sprintf("score: integration length %d does not divide %d hours", delta, hourly.Cols))
	}
	blocks := hourly.Cols / delta
	out := tensor.NewMatrix(hourly.Rows, blocks)
	_ = parallel.For(0, hourly.Rows, func(i int) error { // cannot fail
		src := hourly.Row(i)
		dst := out.Row(i)
		for b := range dst {
			dst[b] = mathx.Mean(src[b*delta : (b+1)*delta])
		}
		return nil
	})
	return out
}

// Labels applies Eq. 4: Y = H(S - threshold) elementwise. NaN scores yield
// label 0 (a sector with no data cannot be declared hot). Rows run on the
// shared pool.
func (w *Weighting) Labels(s *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(s.Rows, s.Cols)
	_ = parallel.For(0, s.Rows, func(i int) error { // cannot fail
		dst := out.Row(i)
		for j, v := range s.Row(i) {
			dst[j] = mathx.Heaviside(v - w.HotThreshold)
		}
		return nil
	})
	return out
}

// Set bundles what forecasting reads of the score chain for one dataset:
// the scores at every resolution and the daily labels. The hourly and
// weekly labels, which only descriptive analyses read, are derived on
// demand as Weighting.Labels(Sh) and Weighting.Labels(Sw).
type Set struct {
	Weighting *Weighting
	// Sh, Sd, Sw are the hourly / daily / weekly rescaled scores
	// (n x mh, n x md, n x mw).
	Sh, Sd, Sw *tensor.Matrix
	// Yd holds the daily binary hot-spot labels, Labels(Sd).
	Yd *tensor.Matrix
}

// Compute runs the full chain on a KPI tensor.
func Compute(k *tensor.Tensor3, w *Weighting) *Set {
	return FromHourly(w.Hourly(k), w)
}

// FromHourly runs the rest of the chain from the hourly scores S' (as
// Hourly or FilterHourly returns them): the daily and weekly integration
// and the daily labels. The Set holds sh itself.
func FromHourly(sh *tensor.Matrix, w *Weighting) *Set {
	sd := Integrate(sh, timegrid.HoursPerDay)
	sw := Integrate(sh, timegrid.HoursPerWeek)
	return &Set{
		Weighting: w,
		Sh:        sh, Sd: sd, Sw: sw,
		Yd: w.Labels(sd),
	}
}

// BecomeLabels derives the "become a hot spot" target of Sec. IV-A on the
// daily axis: day j is marked for sector i when
//
//	mean(Sd[i, j-6..j])   <  threshold   (not hot for the past week)
//	mean(Sd[i, j+1..j+7]) >= threshold   (hot for the coming week)
//	Sd[i, j]   <  threshold              (transition edge at j -> j+1)
//	Sd[i, j+1] >= threshold
//
// keeping only the first day of any run of consecutive activations. The
// printed equation in the paper applies the complements to the opposite
// terms, which would select sectors that stop being hot; we implement the
// semantics its prose describes (see DESIGN.md §3).
func BecomeLabels(sd *tensor.Matrix, threshold float64) *tensor.Matrix {
	out := tensor.NewMatrix(sd.Rows, sd.Cols)
	for i := 0; i < sd.Rows; i++ {
		row := sd.Row(i)
		dst := out.Row(i)
		prevActive := false
		for j := 0; j < sd.Cols; j++ {
			active := becomeAt(row, j, threshold)
			if active && !prevActive {
				dst[j] = 1
			}
			prevActive = active
		}
	}
	return out
}

func becomeAt(sd []float64, j int, threshold float64) bool {
	if j+7 >= len(sd) || j < 6 {
		return false
	}
	if !(sd[j] < threshold) { // NaN-safe: NaN fails both comparisons
		return false
	}
	if !(sd[j+1] >= threshold) {
		return false
	}
	before := Mu(j, 7, sd)
	after := Mu(j+7, 7, sd)
	if math.IsNaN(before) || math.IsNaN(after) {
		return false
	}
	return before < threshold && after >= threshold
}

// FilterSectors applies the paper's missing-data rule (Sec. II-C): a sector
// is discarded when any week has more than maxWeekMissing (0.5 in the paper)
// of its KPI entries missing. It returns the indices of surviving sectors in
// ascending order, the form tensor.Tensor3.SelectSectors requires. Sectors
// are checked on the shared pool.
func FilterSectors(k *tensor.Tensor3, maxWeekMissing float64) []int {
	ok := make([]bool, k.N)
	_ = parallel.For(0, k.N, func(i int) error { // cannot fail
		ok[i] = keepSector(k.Sector(i), k.F, maxWeekMissing)
		return nil
	})
	return survivors(ok)
}

// keepSector reports whether one sector's KPI block sec (one cell of f
// KPIs per hour) passes the missing-data rule: no whole week has more
// than maxWeekMissing of its entries missing.
func keepSector(sec []float64, f int, maxWeekMissing float64) bool {
	total := timegrid.HoursPerWeek * f
	for lo := 0; lo+total <= len(sec) && total > 0; lo += total {
		missing := 0
		for _, v := range sec[lo : lo+total] {
			if math.IsNaN(v) {
				missing++
			}
		}
		if weekFails(missing, f, maxWeekMissing) {
			return false
		}
	}
	return true
}

// weekFails is the missing-data rule for one week of f KPIs per hour with
// missing entries absent.
func weekFails(missing, f int, maxWeekMissing float64) bool {
	return float64(missing)/float64(timegrid.HoursPerWeek*f) > maxWeekMissing
}

// survivors returns the indices i with ok[i], ascending.
func survivors(ok []bool) []int {
	var keep []int
	for i, survives := range ok {
		if survives {
			keep = append(keep, i)
		}
	}
	return keep
}

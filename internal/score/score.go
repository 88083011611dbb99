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

// NewWeighting validates and returns a Weighting.
func NewWeighting(omega, epsilon []float64, hotThreshold float64) (*Weighting, error) {
	if len(omega) != len(epsilon) {
		return nil, fmt.Errorf("score: %d weights vs %d thresholds", len(omega), len(epsilon))
	}
	if len(omega) == 0 {
		return nil, fmt.Errorf("score: empty weighting")
	}
	total := 0.0
	for i, w := range omega {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("score: weight %d is %v", i, w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("score: all weights zero")
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
	if k.F != len(w.Omega) {
		panic(fmt.Sprintf("score: tensor has %d KPIs, weighting has %d", k.F, len(w.Omega)))
	}
	out := tensor.NewMatrix(k.N, k.T)
	total := w.TotalWeight()
	// Sectors are independent rows, so they score on the shared pool with
	// results bit-identical at any worker count. The body cannot fail.
	_ = parallel.For(0, k.N, func(i int) error {
		row := out.Row(i)
		for j := 0; j < k.T; j++ {
			cell := k.Cell(i, j)
			sum := 0.0
			missing := 0
			for f, v := range cell {
				if math.IsNaN(v) {
					missing++
					continue
				}
				sum += w.Omega[f] * mathx.Heaviside(v-w.Epsilon[f])
			}
			if missing == len(cell) {
				row[j] = math.NaN()
				continue
			}
			row[j] = sum / total
		}
		return nil
	})
	return out
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
// block j. delta must divide the number of columns.
func Integrate(hourly *tensor.Matrix, delta int) *tensor.Matrix {
	if delta <= 0 || hourly.Cols%delta != 0 {
		panic(fmt.Sprintf("score: integration length %d does not divide %d hours", delta, hourly.Cols))
	}
	blocks := hourly.Cols / delta
	out := tensor.NewMatrix(hourly.Rows, blocks)
	for i := 0; i < hourly.Rows; i++ {
		src := hourly.Row(i)
		dst := out.Row(i)
		for b := 0; b < blocks; b++ {
			dst[b] = mathx.Mean(src[b*delta : (b+1)*delta])
		}
	}
	return out
}

// Labels applies Eq. 4: Y = H(S - threshold) elementwise. NaN scores yield
// label 0 (a sector with no data cannot be declared hot).
func (w *Weighting) Labels(s *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(s.Rows, s.Cols)
	for i := range s.Data {
		out.Data[i] = mathx.Heaviside(s.Data[i] - w.HotThreshold)
	}
	return out
}

// Set bundles every resolution of the score chain for one dataset.
type Set struct {
	Weighting *Weighting
	// Sh, Sd, Sw are the hourly / daily / weekly rescaled scores
	// (n x mh, n x md, n x mw).
	Sh, Sd, Sw *tensor.Matrix
	// Yh, Yd, Yw are the corresponding binary hot-spot labels.
	Yh, Yd, Yw *tensor.Matrix
}

// Compute runs the full chain on a KPI tensor.
func Compute(k *tensor.Tensor3, w *Weighting) *Set {
	sh := w.Hourly(k)
	sd := Integrate(sh, timegrid.HoursPerDay)
	sw := Integrate(sh, timegrid.HoursPerWeek)
	return &Set{
		Weighting: w,
		Sh:        sh, Sd: sd, Sw: sw,
		Yh: w.Labels(sh), Yd: w.Labels(sd), Yw: w.Labels(sw),
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
	weeks := k.T / timegrid.HoursPerWeek
	total := timegrid.HoursPerWeek * k.F
	ok := make([]bool, k.N)
	_ = parallel.For(0, k.N, func(i int) error { // cannot fail
		for w := 0; w < weeks; w++ {
			missing := 0
			for _, v := range k.Sector(i)[w*total : (w+1)*total] {
				if math.IsNaN(v) {
					missing++
				}
			}
			if float64(missing)/float64(total) > maxWeekMissing {
				return nil
			}
		}
		ok[i] = true
		return nil
	})
	var keep []int
	for i, survives := range ok {
		if survives {
			keep = append(keep, i)
		}
	}
	return keep
}

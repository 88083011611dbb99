// Package mathx provides small numeric helpers shared across the
// reproduction: NaN-aware summary statistics, percentiles, correlation,
// histograms and bucketing utilities.
//
// All functions treat NaN as "missing": they skip NaN inputs where that is
// well defined and return NaN when a quantity is undefined (for example the
// mean of an empty or all-missing slice).
package mathx

import (
	"math"
	"sort"
)

// IsMissing reports whether v represents a missing measurement.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Missing is the canonical missing-value marker used across the repository.
func Missing() float64 { return math.NaN() }

// Heaviside is the Heaviside step function H used by Eqs. 1 and 4 of the
// paper: 1 for x >= 0 and 0 otherwise. NaN inputs yield 0 so that missing
// KPI measurements never contribute to a score.
func Heaviside(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	return 1
}

// Mean returns the arithmetic mean of xs ignoring NaNs. It returns NaN when
// no finite values are present.
func Mean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		sum += x
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Sum returns the sum of xs ignoring NaNs; the sum of an all-NaN slice is 0.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
		}
	}
	return sum
}

// Std returns the population standard deviation of xs ignoring NaNs, or NaN
// when fewer than one finite value is present.
func Std(xs []float64) float64 {
	m := Mean(xs)
	if math.IsNaN(m) {
		return math.NaN()
	}
	ss, n := 0.0, 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		d := x - m
		ss += d * d
		n++
	}
	return math.Sqrt(ss / float64(n))
}

// MinMax returns the minimum and maximum finite values of xs, or (NaN, NaN)
// when none are present.
func MinMax(xs []float64) (lo, hi float64) {
	lo, hi = math.NaN(), math.NaN()
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		if math.IsNaN(lo) || x < lo {
			lo = x
		}
		if math.IsNaN(hi) || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Min returns the minimum finite value of xs (NaN when empty/all missing).
func Min(xs []float64) float64 { lo, _ := MinMax(xs); return lo }

// Max returns the maximum finite value of xs (NaN when empty/all missing).
func Max(xs []float64) float64 { _, hi := MinMax(xs); return hi }

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between order statistics, ignoring NaNs. It matches the
// "linear" mode used by numpy.percentile, which the paper's feature
// extraction relied on. Returns NaN when no finite values are present.
func Percentile(xs []float64, p float64) float64 {
	vals := finite(xs)
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	return percentileSorted(vals, p)
}

// Percentiles computes several percentiles in one pass over a single sort.
func Percentiles(xs []float64, ps []float64) []float64 {
	out := make([]float64, len(ps))
	PercentilesInto(out, xs, ps)
	return out
}

// percentileStack is the input length PercentilesInto sorts in a stack
// buffer; longer inputs pay one heap copy.
const percentileStack = 64

// PercentilesInto is Percentiles writing into dst (len(ps) values)
// instead of allocating: inputs of up to 64 values are sorted in a stack
// copy, with the same sort, so the results are bit-identical.
func PercentilesInto(dst, xs, ps []float64) {
	var buf [percentileStack]float64
	vals := buf[:0]
	if len(xs) > len(buf) {
		vals = make([]float64, 0, len(xs))
	}
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		for i := range ps {
			dst[i] = math.NaN()
		}
		return
	}
	sort.Float64s(vals)
	for i, p := range ps {
		dst[i] = percentileSorted(vals, p)
	}
}

func percentileSorted(sorted []float64, p float64) float64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func finite(xs []float64) []float64 {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	return vals
}

// Pearson returns the Pearson correlation coefficient between x and y,
// considering only index positions where both values are finite. It returns
// NaN when fewer than two such pairs exist or when either marginal variance
// is zero.
func Pearson(x, y []float64) float64 {
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	var sx, sy float64
	cnt := 0
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		sx += x[i]
		sy += y[i]
		cnt++
	}
	if cnt < 2 {
		return math.NaN()
	}
	mx, my := sx/float64(cnt), sy/float64(cnt)
	var sxx, syy, sxy float64
	for i := 0; i < n; i++ {
		if math.IsNaN(x[i]) || math.IsNaN(y[i]) {
			continue
		}
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		syy += dy * dy
		sxy += dx * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Clamp limits v to the closed interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ArgsortDesc returns the permutation that sorts xs in descending order.
// Ties are broken by the original index so the result is deterministic.
// NaNs sort last.
func ArgsortDesc(xs []float64) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		xa, xb := xs[idx[a]], xs[idx[b]]
		na, nb := math.IsNaN(xa), math.IsNaN(xb)
		switch {
		case na && nb:
			return idx[a] < idx[b]
		case na:
			return false
		case nb:
			return true
		case xa != xb:
			return xa > xb
		default:
			return idx[a] < idx[b]
		}
	})
	return idx
}

// Linspace returns n evenly spaced points from lo to hi inclusive.
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}

// LogBuckets returns edges for logarithmically spaced distance buckets of
// the kind used by the paper's Fig. 8 ("0, 0.1, 0.2, 0.4, 0.8, ... km").
// The first bucket is the degenerate [0,0] bucket (same-tower sectors); the
// following buckets double in width starting from first, for count buckets
// in total (including the zero bucket).
func LogBuckets(first float64, count int) []float64 {
	if count < 1 {
		return nil
	}
	edges := make([]float64, count)
	edges[0] = 0
	v := first
	for i := 1; i < count; i++ {
		edges[i] = v
		v *= 2
	}
	return edges
}

// BucketIndex returns the index of the bucket that x falls into given
// ascending bucket edge values: index i means edges[i] <= x < edges[i+1],
// with the last bucket unbounded above. x below edges[0] maps to bucket 0.
func BucketIndex(edges []float64, x float64) int {
	idx := sort.SearchFloat64s(edges, x)
	// SearchFloat64s returns the insertion point; an exact match at edges[i]
	// belongs to bucket i, anything between edges[i] and edges[i+1] too.
	if idx < len(edges) && edges[idx] == x {
		return idx
	}
	if idx == 0 {
		return 0
	}
	return idx - 1
}

// Histogram counts xs into len(edges) buckets defined as in BucketIndex.
func Histogram(edges []float64, xs []float64) []int {
	counts := make([]int, len(edges))
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		counts[BucketIndex(edges, x)]++
	}
	return counts
}

// NormalizeCounts converts integer counts into relative frequencies summing
// to 1. An all-zero input yields all zeros.
func NormalizeCounts(counts []int) []float64 {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// Softplus returns log(1+exp(x)) computed stably; used by the synthetic
// generator to map latent overload onto non-negative congestion KPIs.
func Softplus(x float64) float64 {
	if x > 30 {
		return x
	}
	if x < -30 {
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}

// Logistic returns 1/(1+exp(-x)).
func Logistic(x float64) float64 {
	if x < -40 {
		return 0
	}
	if x > 40 {
		return 1
	}
	return 1 / (1 + math.Exp(-x))
}

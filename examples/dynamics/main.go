// Dynamics: explore the spatio-temporal regularities of hot spots the way
// Sec. III of the paper does — duration histograms, weekly patterns, their
// temporal consistency, and the correlation-versus-distance structure that
// justifies spatially unconstrained forecasting.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/spatial"
)

func main() {
	log.SetFlags(0)

	p, err := core.NewPipeline(core.Config{Seed: 21, Sectors: 400, Weeks: 18})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d sectors over %d days\n\n", p.Sectors(), p.Days())

	// How long do hot spots last? The pipeline keeps the daily labels;
	// the hourly ones are derived here from the hourly scores.
	yh := p.Scores.Weighting.Labels(p.Scores.Sh)
	hours := dynamics.HoursPerDayHistogram(yh)
	fmt.Println("hours per day as hot spot (relative count):")
	for _, h := range []int{4, 8, 12, 16, 20, 24} {
		fmt.Printf("  %2dh: %.3f\n", h, hours[h-1])
	}

	days := dynamics.DaysPerWeekHistogram(p.Scores.Yd)
	fmt.Println("\ndays per week as hot spot:")
	for d := 1; d <= 7; d++ {
		fmt.Printf("  %dd: %.3f\n", d, days[d-1])
	}

	// Which weekly patterns dominate? (Table II)
	fmt.Println("\ntop 10 weekly patterns (never-hot excluded):")
	for rank, pat := range dynamics.WeeklyPatterns(p.Scores.Yd, 10) {
		fmt.Printf("  %2d. %s  %5.1f%%\n", rank+2, pat, pat.Percent)
	}

	// How stable are they week over week?
	cons := dynamics.WeeklyConsistency(p.Scores.Yd)
	fmt.Printf("\nweek-to-week pattern consistency: mean %.2f (paper: 0.6), median %.2f\n",
		cons.Mean, cons.Percentiles[2])

	// Does proximity imply similar behaviour? (Fig. 8)
	pts := make([]spatial.Point, p.Sectors())
	for i, sec := range p.Dataset.Topo.Sectors {
		pts[i] = spatial.Point{X: sec.X, Y: sec.Y}
	}
	cfg := spatial.DefaultCorrelationConfig()
	cfg.NeighborsPerSector = p.Sectors() / 2
	cfg.TopCorrelated = p.Sectors() / 5
	corr := spatial.CorrelationByDistance(yh, pts, cfg)
	fmt.Println("\ncorrelation vs distance (median per bucket):")
	fmt.Println("  km      avg     best-of-top")
	for i := range corr.Average {
		a, b := corr.Average[i].Stats, corr.Best[i].Stats
		if a.N == 0 && b.N == 0 {
			continue
		}
		fmt.Printf("  %-7.1f %+6.2f  %+6.2f\n", corr.Average[i].EdgeKM, a.Median, b.Median)
	}
	fmt.Println("\nsame-tower sectors correlate strongly; average similarity dies within ~1 km,")
	fmt.Println("but near-twin behaviour exists at any distance -> forecast without spatial constraints.")
}

package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json hotperf reads: the declared
// metrics with their units, directions and regression bounds.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(root string) (*benchSpec, error) {
	var s benchSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &s); err != nil {
		return nil, err
	}
	return &s, nil
}

// declared is the metric list a run reports on its last line: end-to-end
// without tracing, per-layer with it.
func (s *benchSpec) declared(traced bool) []specMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// compare prints, for every workload and every metric both sides measured,
// each side's median and quartiles and the fraction of run pairs the head
// wins. End-to-end metrics get a verdict by judge's rules and the
// BENCHMARK.json bounds; every other metric (per-layer, or particular to
// one workload) is shown without one. A first row per workload compares
// failed operations and correctness, which no gain may hide.
func compare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hotperf compare", flag.ContinueOnError)
	basePaths := fs.String("base", "", "comma-separated result documents of the parent commit")
	headPaths := fs.String("head", "", "comma-separated result documents of the change")
	repo := fs.String("repo", "", "repository root holding BENCHMARK.json (default: as for a run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePaths == "" || *headPaths == "" || fs.NArg() > 0 {
		return fmt.Errorf("compare needs -base and -head, and nothing else")
	}
	root, err := findRepo(*repo)
	if err != nil {
		return err
	}
	spec, err := readSpec(root)
	if err != nil {
		return err
	}
	base, err := loadRuns(*basePaths)
	if err != nil {
		return err
	}
	head, err := loadRuns(*headPaths)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-14s %-30s %-14s %-34s %-34s %5s  %s\n",
		"workload", "metric", "unit", "base median [q1, q3]", "head median [q1, q3]", "win", "verdict")
	regressed := 0
	for _, w := range workloadNames {
		bf, hf := failuresOf(base, w), failuresOf(head, w)
		if bf.runs == 0 || hf.runs == 0 {
			continue
		}
		worse := hf.worseThan(bf)
		verdict := "unchanged"
		if worse {
			verdict = "regressed"
			regressed++
		}
		fmt.Fprintf(out, "%-14s %-30s %-14s %-34s %-34s %5s  %s\n", w, "ops_failed", "ops", bf, hf, "", verdict)
		shown := map[string]bool{}
		for _, m := range spec.EndToEnd {
			b, h := values(base, w, false, m.Name), values(head, w, false, m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			shown[m.Name] = true
			verdict := judge(b, h, m, worse)
			if verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(out, "%-14s %-30s %-14s %-34s %-34s %5.2f  %s\n", w, m.Name, m.Unit,
				describe(b), describe(h), winFraction(b, h, m.Better), verdict)
		}
		// Every other metric, untraced runs first; a traced run repeats its
		// untraced pass's metrics, so those print once.
		for _, traced := range []bool{false, true} {
			for _, name := range metricNames(base, head, w, traced) {
				b, h := values(base, w, traced, name), values(head, w, traced, name)
				if shown[name] || len(b) == 0 || len(h) == 0 {
					continue
				}
				shown[name] = true
				// Only declared metrics have a direction, so only they get a
				// win fraction.
				win := ""
				if m, ok := spec.lookup(name); ok {
					win = fmt.Sprintf("%.2f", winFraction(b, h, m.Better))
				}
				fmt.Fprintf(out, "%-14s %-30s %-14s %-34s %-34s %5s  -\n", w, name, unitOf(base, w, name),
					describe(b), describe(h), win)
			}
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d (workload, metric) pair(s) regressed", regressed)
	}
	return nil
}

// lookup returns the metric BENCHMARK.json declares under name.
func (s *benchSpec) lookup(name string) (specMetric, bool) {
	for _, m := range append(s.EndToEnd, s.PerLayer...) {
		if m.Name == name {
			return m, true
		}
	}
	return specMetric{}, false
}

// failures is one side's failed operations and wrong runs on a workload.
type failures struct {
	runs, incorrect   int
	attempted, failed int64
}

func failuresOf(runs []*result, workload string) failures {
	var f failures
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		f.runs++
		f.attempted += r.Attempted
		f.failed += r.Failed
		if !r.Correct {
			f.incorrect++
		}
	}
	return f
}

// worseThan reports whether f has a run that failed its correctness checks
// or fails a larger share of its operations than base.
func (f failures) worseThan(base failures) bool {
	return f.incorrect > 0 || f.failed*base.attempted > base.failed*f.attempted
}

func (f failures) String() string {
	return fmt.Sprintf("%d/%d failed, %d/%d wrong", f.failed, f.attempted, f.incorrect, f.runs)
}

// metricNames lists, sorted, every metric the runs of one workload hold on
// either side.
func metricNames(base, head []*result, workload string, traced bool) []string {
	seen := map[string]bool{}
	var names []string
	for _, r := range append(append([]*result(nil), base...), head...) {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		for n := range r.Metrics {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// unitOf is the unit the runs of a workload give a metric.
func unitOf(runs []*result, workload, name string) string {
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			return m.Unit
		}
	}
	return ""
}

func loadRuns(paths string) ([]*result, error) {
	var runs []*result
	for _, p := range strings.Split(paths, ",") {
		var doc document
		if err := readJSON(strings.TrimSpace(p), &doc); err != nil {
			return nil, err
		}
		runs = append(runs, doc.Runs...)
	}
	return runs, nil
}

// values collects one metric of one workload across runs, in run order.
func values(runs []*result, workload string, traced bool, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func describe(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q[1], q[0], q[2], len(xs))
}

// better reports whether a reads better than b for the metric's direction.
func better(a, b float64, dir string) bool {
	if dir == "higher" {
		return a > b
	}
	return a < b
}

// winFraction is the share of run pairs (base[i], head[i]) the head wins;
// ties count for neither side.
func winFraction(base, head []float64, dir string) float64 {
	n := min(len(base), len(head))
	wins := 0
	for i := 0; i < n; i++ {
		if better(head[i], base[i], dir) {
			wins++
		}
	}
	return float64(wins) / float64(n)
}

// judge gives one end-to-end metric its verdict:
//   - improved: at least ten pairs, the head wins nine tenths of them, and
//     the medians differ by more than the base's quartile distance;
//     withheld (unresolved) when headFails, the head having failed a larger
//     share of operations or a correctness check, since a gain does not
//     count while more operations fail;
//   - unresolved: either side's spread (quartile distance over median) is
//     wider than the bound, unless every head run beats every base run;
//   - regressed: the head median is worse than the base median by more
//     than the bound's share of it;
//   - unchanged: otherwise.
func judge(base, head []float64, m specMetric, headFails bool) string {
	qb, qh := quartiles(base), quartiles(head)
	pairs := min(len(base), len(head))
	if pairs >= 10 && winFraction(base, head, m.Better) >= 0.9 &&
		better(qh[1], qb[1], m.Better) && math.Abs(qh[1]-qb[1]) > qb[2]-qb[0] {
		if headFails {
			return "unresolved"
		}
		return "improved"
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b, m.Better)
		}
	}
	if (spread(qb) > m.Bound || spread(qh) > m.Bound) && !allBetter {
		return "unresolved"
	}
	if better(qb[1], qh[1], m.Better) && math.Abs(qh[1]-qb[1]) > m.Bound*math.Abs(qb[1]) {
		return "regressed"
	}
	return "unchanged"
}

// spread is the quartile distance as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method),
// so spreads read the same as in any tooling built on it.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

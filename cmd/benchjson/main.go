// Command benchjson distills `go test -bench` text output into JSON, so
// CI bench artifacts are machine-readable and the perf trajectory can be
// tracked across PRs without scraping free-form logs.
//
// Usage:
//
//	go test -run=NONE -bench='^BenchmarkFit' -benchmem -benchtime=1x . | benchjson > BENCH_train.json
//
// Each benchmark line becomes one entry with its parallelism suffix,
// iteration count and every reported metric (ns/op, B/op, allocs/op and
// any custom b.ReportMetric units). The transcript's goos, goarch and cpu
// header lines, plus the Go version benchjson was built with, go into a
// context block; other non-benchmark lines are ignored, so the tool can
// consume a full `go test` transcript. With -diff, the new report is
// schema-compared against a committed baseline and any vanished series
// fails the run; the context block is never compared.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", "", "output path (default stdout)")
	match := flag.String("match", "", "keep only benchmarks whose name (without the Benchmark prefix) matches this regexp")
	diff := flag.String("diff", "", "baseline BENCH_*.json to schema-compare the parsed report against (fails on vanished series)")
	flag.Parse()
	var keep *regexp.Regexp
	if *match != "" {
		var err error
		if keep, err = regexp.Compile(*match); err != nil {
			log.Fatalf("bad -match: %v", err)
		}
	}
	report, err := Parse(os.Stdin, keep)
	if err != nil {
		log.Fatal(err)
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		log.Fatal(err)
	}
	if *diff != "" {
		base, err := ReadFile(*diff)
		if err != nil {
			log.Fatal(err)
		}
		if err := CompareSchema(report, base); err != nil {
			log.Fatal(err)
		}
	}
}

// Entry is one benchmark result.
type Entry struct {
	// Name is the benchmark name without the "Benchmark" prefix and the
	// -procs suffix (e.g. "FitForestHist").
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix of the run (1 when absent).
	Procs int `json:"procs"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every reported pair (ns/op, B/op,
	// allocs/op, custom units).
	Metrics map[string]float64 `json:"metrics"`
}

// Context records what the numbers were measured on: the transcript's
// goos, goarch and cpu header lines, and the Go release that built
// benchjson (the toolchain CI runs the benchmarks with).
type Context struct {
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Go     string `json:"go"`
}

// Report is the top-level JSON document.
type Report struct {
	Context    *Context `json:"context,omitempty"`
	Benchmarks []Entry  `json:"benchmarks"`
}

// Parse scans a go-test transcript for benchmark result lines, keeping
// only names matched by keep (nil keeps everything), and for the header
// lines that fill the report's context.
func Parse(r io.Reader, keep *regexp.Regexp) (*Report, error) {
	ctx := &Context{Go: runtime.Version()}
	report := &Report{Context: ctx, Benchmarks: []Entry{}}
	headers := map[string]*string{"goos": &ctx.GoOS, "goarch": &ctx.GoArch, "cpu": &ctx.CPU}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if key, val, ok := strings.Cut(line, ": "); ok && headers[key] != nil {
			*headers[key] = strings.TrimSpace(val)
			continue
		}
		entry, ok := ParseLine(line)
		if ok && (keep == nil || keep.MatchString(entry.Name)) {
			report.Benchmarks = append(report.Benchmarks, entry)
		}
	}
	return report, sc.Err()
}

// ParseLine parses one "BenchmarkName-P  N  value unit [value unit]..."
// result line; ok is false for anything else.
func ParseLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Entry{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	procs := 1
	if cut := strings.LastIndex(name, "-"); cut >= 0 {
		if p, err := strconv.Atoi(name[cut+1:]); err == nil {
			procs = p
			name = name[:cut]
		}
	}
	iterations, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	metrics := map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		value, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, false
		}
		metrics[fields[i+1]] = value
	}
	if len(metrics) == 0 {
		return Entry{}, false
	}
	return Entry{Name: name, Procs: procs, Iterations: iterations, Metrics: metrics}, true
}

// ReadFile loads a report benchjson wrote.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return &r, nil
}

// Schema returns the report's shape: each benchmark name mapped to its
// sorted metric keys. Values are deliberately absent — schema comparison
// must never turn perf drift into a failure.
func (r *Report) Schema() map[string][]string {
	s := make(map[string][]string, len(r.Benchmarks))
	for _, e := range r.Benchmarks {
		keys := make([]string, 0, len(e.Metrics))
		for k := range e.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s[e.Name] = keys
	}
	return s
}

// CompareSchema checks that got covers want's shape: every benchmark name
// in want exists in got with at least want's metric keys. Extra
// benchmarks or metrics in got are allowed (additive change), and values
// and contexts are never compared — only a vanished series fails, since that silently
// breaks the perf trajectory the committed baseline anchors.
func CompareSchema(got, want *Report) error {
	gs, ws := got.Schema(), want.Schema()
	var missing []string
	for name, wantKeys := range ws {
		gotKeys, ok := gs[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		have := make(map[string]bool, len(gotKeys))
		for _, k := range gotKeys {
			have[k] = true
		}
		for _, k := range wantKeys {
			if !have[k] {
				missing = append(missing, name+"."+k)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("schema regression, baseline series missing from new report: %s",
			strings.Join(missing, ", "))
	}
	return nil
}

package main

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	transcript := `goos: linux
goarch: amd64
pkg: repro
BenchmarkFitForestExact-8   	       1	945123456 ns/op	123456 B/op	    7890 allocs/op
BenchmarkFitForestHist-8    	       4	270123456 ns/op	 65432 B/op	    1234 allocs/op
BenchmarkServeBatch         	     100	   1234567 ns/op	      12345 forecasts/s
--- BENCH: BenchmarkSomething
PASS
ok  	repro	12.3s
`
	report, err := Parse(strings.NewReader(transcript), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("parsed %d entries, want 3: %v", len(report.Benchmarks), report.Benchmarks)
	}
	e := report.Benchmarks[0]
	if e.Name != "FitForestExact" || e.Procs != 8 || e.Iterations != 1 {
		t.Fatalf("entry 0 = %+v", e)
	}
	if e.Metrics["ns/op"] != 945123456 || e.Metrics["B/op"] != 123456 || e.Metrics["allocs/op"] != 7890 {
		t.Fatalf("entry 0 metrics = %v", e.Metrics)
	}
	// No -procs suffix and a custom metric unit.
	e = report.Benchmarks[2]
	if e.Name != "ServeBatch" || e.Procs != 1 || e.Metrics["forecasts/s"] != 12345 {
		t.Fatalf("entry 2 = %+v", e)
	}
}

func TestParseContext(t *testing.T) {
	transcript := `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkPredictBatchTreeFlat 	    5128	    242105 ns/op
`
	report, err := Parse(strings.NewReader(transcript), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Context{GoOS: "linux", GoArch: "amd64", CPU: "AMD EPYC 7B13", Go: runtime.Version()}
	if report.Context == nil || *report.Context != want {
		t.Fatalf("context = %+v, want %+v", report.Context, want)
	}
	if len(report.Benchmarks) != 1 {
		t.Fatalf("header lines leaked into benchmarks: %v", report.Benchmarks)
	}
	// The context is provenance, not schema: a baseline from another
	// machine, or one predating the block, still diffs clean.
	other := &Report{Context: &Context{GoOS: "darwin", CPU: "M2"}, Benchmarks: report.Benchmarks}
	if err := CompareSchema(report, other); err != nil {
		t.Fatalf("context difference failed the diff: %v", err)
	}
	if err := CompareSchema(report, &Report{Benchmarks: report.Benchmarks}); err != nil {
		t.Fatalf("baseline without context failed the diff: %v", err)
	}
}

func TestParseMatchFilter(t *testing.T) {
	transcript := `BenchmarkFitForestHist-8 1 5 ns/op
BenchmarkServeBatch-8 1 5 ns/op
`
	report, err := Parse(strings.NewReader(transcript), regexp.MustCompile(`^Fit`))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 1 || report.Benchmarks[0].Name != "FitForestHist" {
		t.Fatalf("filter kept %v", report.Benchmarks)
	}
}

func TestParseIgnoresNoise(t *testing.T) {
	for _, line := range []string{
		"",
		"PASS",
		"Benchmark",                     // no metrics
		"BenchmarkX-4 notanint 5 ns/op", // bad iteration count
		"BenchmarkX-4 2 five ns/op",     // bad value
	} {
		if _, ok := ParseLine(line); ok {
			t.Fatalf("noise line parsed as benchmark: %q", line)
		}
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	doc := `{"benchmarks": [{"name": "FitGBTHist", "procs": 4, "iterations": 100,
		"metrics": {"ns/op": 1.5, "B/op": 200}}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 1 || got.Benchmarks[0].Name != "FitGBTHist" ||
		got.Benchmarks[0].Procs != 4 || got.Benchmarks[0].Metrics["ns/op"] != 1.5 {
		t.Fatalf("round trip lost data: %v", got.Benchmarks)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file read without error")
	}
	if err := os.WriteFile(path, []byte(doc[:20]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("truncated report read without error")
	}
}

func TestCompareSchema(t *testing.T) {
	base := &Report{Benchmarks: []Entry{
		{Name: "ServeBatch", Metrics: map[string]float64{"req/s": 100, "p99-ms": 2}},
		{Name: "ServeHealthz", Metrics: map[string]float64{"req/s": 500}},
	}}
	// Identical shape with wildly different values: fine.
	same := &Report{Benchmarks: []Entry{
		{Name: "ServeBatch", Metrics: map[string]float64{"req/s": 9999, "p99-ms": 0.1}},
		{Name: "ServeHealthz", Metrics: map[string]float64{"req/s": 1}},
	}}
	if err := CompareSchema(same, base); err != nil {
		t.Fatalf("value drift flagged as schema change: %v", err)
	}
	// Additive change: fine.
	extra := &Report{Benchmarks: append(append([]Entry(nil), same.Benchmarks...),
		Entry{Name: "ServeNew", Metrics: map[string]float64{"req/s": 1}})}
	if err := CompareSchema(extra, base); err != nil {
		t.Fatalf("additive change rejected: %v", err)
	}
	// A vanished benchmark fails.
	if err := CompareSchema(&Report{Benchmarks: same.Benchmarks[:1]}, base); err == nil ||
		!strings.Contains(err.Error(), "ServeHealthz") {
		t.Fatalf("vanished benchmark not caught: %v", err)
	}
	// A vanished metric key fails.
	thin := &Report{Benchmarks: []Entry{
		{Name: "ServeBatch", Metrics: map[string]float64{"req/s": 100}},
		{Name: "ServeHealthz", Metrics: map[string]float64{"req/s": 500}},
	}}
	if err := CompareSchema(thin, base); err == nil ||
		!strings.Contains(err.Error(), "ServeBatch.p99-ms") {
		t.Fatalf("vanished metric not caught: %v", err)
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// TestRunDescriptiveSmoke runs the descriptive analyses at tiny scale and
// asserts every section renders.
func TestRunDescriptiveSmoke(t *testing.T) {
	var buf strings.Builder
	err := run([]string{"-scale", "tiny", "-skip-forecast", "-skip-impute", "-workers", "2"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "prepared ") || !strings.Contains(got, "sweep workers") {
		t.Fatalf("missing preparation header:\n%s", got)
	}
	for _, section := range []string{
		"Fig 1", "Fig 2", "Fig 3", "Fig 4", "Fig 6", "Fig 7", "Table II", "Fig 8",
	} {
		if !strings.Contains(got, "["+section+" took ") {
			t.Fatalf("section %q missing from report", section)
		}
	}
	if strings.Contains(got, "[Fig 5 took ") {
		t.Fatal("-skip-impute did not skip Fig 5")
	}
	if strings.Contains(got, "Figs 9-10") {
		t.Fatal("-skip-forecast did not skip the forecasting study")
	}
}

// TestRunForecastSmoke exercises the full forecasting path (sweeps,
// stability, importance, ablations) at tiny scale on the parallel engine.
func TestRunForecastSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full tiny-scale bench takes tens of seconds")
	}
	var buf strings.Builder
	err := run([]string{"-scale", "tiny", "-skip-impute", "-workers", "4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, section := range []string{"Sec V-A", "Figs 9-10", "Fig 13", "Fig 15", "PR curves", "Ablations"} {
		if !strings.Contains(got, "["+section+" took ") {
			t.Fatalf("section %q missing from report", section)
		}
	}
	if !strings.Contains(got, "headline: RF-F1 vs Average") {
		t.Fatalf("missing headline line:\n%s", got)
	}
}

// TestRunDescriptiveFromFile: -in analyses a saved dataset instead of
// generating one, and a missing file is an error.
func TestRunDescriptiveFromFile(t *testing.T) {
	cfg := simnet.DefaultConfig()
	cfg.Sectors, cfg.Weeks, cfg.Seed = 60, 4, 9
	ds, err := simnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.hotd")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := run([]string{"-in", path, "-skip-forecast", "-skip-impute", "-workers", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, " x 28 days ") {
		t.Fatalf("report is not of the 4-week dataset file:\n%s", got)
	}
	for _, section := range []string{"Fig 1", "Fig 4", "Fig 6", "Fig 7", "Table II", "Fig 8"} {
		if !strings.Contains(got, "["+section+" took ") {
			t.Fatalf("section %q missing from report", section)
		}
	}
	if err := run([]string{"-in", filepath.Join(t.TempDir(), "missing.hotd"), "-skip-forecast"}, &strings.Builder{}); err == nil {
		t.Fatal("missing -in file accepted")
	}
}

func TestRunRejectsUnknownScale(t *testing.T) {
	if err := run([]string{"-scale", "galactic"}, &strings.Builder{}); err == nil {
		t.Fatal("unknown scale accepted")
	}
}

// TestRunCSVStream drives the -csv streaming sweep at tiny scale: every
// grid point of the scale's (t, h, w) grid times all eight models must
// land in the file, with progress and a summary line on the report.
func TestRunCSVStream(t *testing.T) {
	if testing.Short() {
		t.Skip("full tiny-scale model sweep takes tens of seconds")
	}
	path := filepath.Join(t.TempDir(), "sweep.csv")
	var buf strings.Builder
	err := run([]string{"-scale", "tiny", "-skip-forecast", "-skip-impute", "-workers", "4", "-csv", path}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "csv: wrote ") {
		t.Fatalf("missing csv summary line:\n%s", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "model,target,t,h,w,psi,psi_random,lift,positives" {
		t.Fatalf("bad header %q", lines[0])
	}
	// Tiny scale: 2 ts x 2 hs x 2 ws x 8 models.
	if want := 2*2*2*8 + 1; len(lines) != want {
		t.Fatalf("csv has %d lines, want %d", len(lines), want)
	}
	for _, model := range []string{"Random", "Average", "RF-F1", "RF-F2"} {
		if !strings.Contains(string(data), model+",hot-spot,") {
			t.Fatalf("model %s missing from csv", model)
		}
	}
}

// TestRunCSVBadPath: an unwritable -csv path must surface as an error, not
// a silent no-op.
func TestRunCSVBadPath(t *testing.T) {
	err := run([]string{"-scale", "tiny", "-skip-forecast", "-skip-impute",
		"-csv", filepath.Join(t.TempDir(), "no-such-dir", "x.csv")}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "csv sweep") {
		t.Fatalf("unwritable csv path accepted (err=%v)", err)
	}
}

// TestRunProfiles: -cpuprofile/-memprofile write non-empty pprof files so
// perf work on the fit/predict path is measurable locally.
func TestRunProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var buf strings.Builder
	err := run([]string{"-scale", "tiny", "-skip-forecast", "-skip-impute", "-workers", "2",
		"-cpuprofile", cpu, "-memprofile", mem}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
	// An unwritable profile path is an error up front, not a lost profile.
	err = run([]string{"-scale", "tiny", "-skip-forecast", "-skip-impute",
		"-cpuprofile", filepath.Join(dir, "no-such-dir", "cpu.pprof")}, &strings.Builder{})
	if err == nil {
		t.Fatal("unwritable cpuprofile path accepted")
	}
}

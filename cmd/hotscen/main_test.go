package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario/evalmatrix"
)

// tinyArgs keeps the smoke runs to a couple of seconds.
func tinyArgs(extra ...string) []string {
	args := []string{
		"-packs", "baseline,missing-storm",
		"-models", "Random,Average",
		"-sectors", "100", "-weeks", "8", "-t", "1", "-hs", "1",
	}
	return append(args, extra...)
}

// TestList prints the pack catalogue.
func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"baseline", "flash-crowd", "outage-wave", "missing-storm", "seasonal-drift", "load-shift", "perfect-storm"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestMatrixArtifact writes a matrix, reloads it, and passes a -diff run
// against it.
func TestMatrixArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.json")
	var out bytes.Buffer
	if err := run(tinyArgs("-o", path), &out); err != nil {
		t.Fatal(err)
	}
	m, err := evalmatrix.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Packs) != 2 || len(m.Models) != 2 || len(m.Cells) != 4 {
		t.Fatalf("unexpected matrix shape: %d packs, %d models, %d cells", len(m.Packs), len(m.Models), len(m.Cells))
	}

	out.Reset()
	if err := run(tinyArgs("-o", filepath.Join(t.TempDir(), "again.json"), "-diff", path), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "schema matches") {
		t.Fatalf("diff run did not confirm schema: %s", out.String())
	}
}

// TestDiffCatchesDrift: a baseline with a different pack set must fail the
// -diff run.
func TestDiffCatchesDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.json")
	if err := run(tinyArgs("-o", path), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	m, err := evalmatrix.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Packs = m.Packs[:1]
	drifted := filepath.Join(t.TempDir(), "drifted.json")
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(drifted, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(tinyArgs("-diff", drifted, "-o", filepath.Join(t.TempDir(), "out.json")), &bytes.Buffer{}); err == nil {
		t.Fatal("schema drift not detected")
	}
}

// TestDiffGatesValues: -diff fails when a cell leaves the baseline's band
// and passes inside it, and the written matrix carries the baseline's band.
func TestDiffGatesValues(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "matrix.json")
	if err := run(tinyArgs("-o", path), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	m, err := evalmatrix.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := func(name string, m *evalmatrix.Matrix) string {
		p := filepath.Join(dir, name)
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	m.Band = &evalmatrix.Band{Psi: 0.01, Lift: 0.2}
	m.Cells[1].MeanLift += 0.15
	inBand := write("in.json", m)
	out := filepath.Join(dir, "out.json")
	if err := run(tinyArgs("-diff", inBand, "-o", out), &bytes.Buffer{}); err != nil {
		t.Fatalf("in-band baseline rejected: %v", err)
	}
	got, err := evalmatrix.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if got.Band == nil || *got.Band != *m.Band {
		t.Fatalf("written matrix band %+v, baseline %+v", got.Band, m.Band)
	}
	m.Cells[1].MeanLift += 0.1
	if err := run(tinyArgs("-diff", write("out-of-band.json", m), "-o", out), &bytes.Buffer{}); err == nil {
		t.Fatal("a cell outside the band passed -diff")
	}
}

// TestStdoutAndBadFlags covers the stdout path and flag validation.
func TestStdoutAndBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run(tinyArgs(), &out); err != nil {
		t.Fatal(err)
	}
	var m evalmatrix.Matrix
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		t.Fatalf("stdout is not a matrix artifact: %v", err)
	}
	for _, bad := range [][]string{
		{"-packs", "no-such-pack"},
		{"-models", "NoSuchModel"},
		{"-hs", "one"},
		{"-split-algo", "fancy"},
	} {
		if err := run(bad, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", bad)
		}
	}
}

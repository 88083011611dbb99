package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simnet"
)

// TestRunSmoke generates a tiny dataset end to end and asserts the report
// line parses back to the written file's shape.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "net.hotd")
	var buf strings.Builder
	err := run([]string{"-out", out, "-sectors", "60", "-weeks", "4", "-seed", "3"}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	got := buf.String()
	if !strings.HasPrefix(got, "wrote "+out+":") {
		t.Fatalf("unexpected report: %q", got)
	}
	var sectors, hours, kpis int
	var mb, missing float64
	tail := got[len("wrote "+out+": "):]
	if _, err := fmt.Sscanf(tail, "%d sectors x %d hours x %d KPIs (%f MB, %f%% missing)",
		&sectors, &hours, &kpis, &mb, &missing); err != nil {
		t.Fatalf("unparseable report %q: %v", got, err)
	}
	if sectors < 40 || hours != 4*7*24 || kpis != simnet.NumKPIs {
		t.Fatalf("implausible shape: %d sectors x %d hours x %d KPIs", sectors, hours, kpis)
	}

	ds, err := simnet.LoadFile(out)
	if err != nil {
		t.Fatalf("written dataset does not load: %v", err)
	}
	if ds.K.N != sectors || ds.K.T != hours {
		t.Fatalf("report (%d x %d) disagrees with file (%d x %d)", sectors, hours, ds.K.N, ds.K.T)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run([]string{"-sectors", "0"}, &strings.Builder{}); err == nil {
		t.Fatal("zero sectors accepted")
	}
}

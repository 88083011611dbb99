//go:build linux

package mltree

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/randx"
)

// span is one address range of /proc/self/maps.
type span struct {
	lo, hi   uint64
	writable bool
	anon     bool
}

// mappings reads the process's address ranges from /proc/self/maps.
func mappings(t *testing.T) []span {
	t.Helper()
	f, err := os.Open("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		var s span
		if _, err := fmt.Sscanf(fields[0], "%x-%x", &s.lo, &s.hi); err != nil {
			t.Fatalf("maps line %q: %v", sc.Text(), err)
		}
		s.writable = strings.HasPrefix(fields[1], "rw")
		s.anon = fields[4] == "0" && len(fields) == 5
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// newAnonBytes counts the writable anonymous bytes of after that no range
// of before covered.
func newAnonBytes(before, after []span) uint64 {
	var total uint64
	for _, a := range after {
		if !a.anon || !a.writable {
			continue
		}
		uncovered := a.hi - a.lo
		for _, b := range before {
			lo, hi := max(a.lo, b.lo), min(a.hi, b.hi)
			if lo < hi {
				uncovered -= hi - lo
			}
		}
		total += uncovered
	}
	return total
}

// TestChainHistogramsOffHeap: a chain-mode fit (the paper's Tree, 80% of
// the features at every split) takes its full-F histograms from anonymous
// mappings and unmaps them when it returns. The fit's heap allocations
// grow by less than one histogram, and no anonymous mapping it made is
// left behind.
func TestChainHistogramsOffHeap(t *testing.T) {
	n, f := 1500, 300
	x, y := randMatrix(n, f, 29)
	bn, err := Bin(x, n, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TreeConfig()
	if 2*featureCountFor(cfg, f) < f {
		t.Fatal("TreeConfig no longer grows in chain mode")
	}
	histBytes := uint64(binOffsets(bn)[f]) * 2 * 8
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	runtime.GC()
	before := mappings(t)
	metrics.Read(sample)
	allocs := sample[0].Value.Uint64()
	tree, err := FitTreeBinned(bn, y, nil, cfg, randx.New(7, 8))
	if err != nil {
		t.Fatal(err)
	}
	metrics.Read(sample)
	allocs = sample[0].Value.Uint64() - allocs
	after := mappings(t)
	if tree.LeafCount() < 3 {
		t.Fatalf("the fit grew %d leaves; the test needs a chain of splits", tree.LeafCount())
	}
	t.Logf("fit: %d heap bytes allocated; one histogram is %d bytes", allocs, histBytes)
	if allocs >= histBytes {
		t.Errorf("a chain-mode fit allocated %d heap bytes, want < %d (one histogram)", allocs, histBytes)
	}
	if extra := newAnonBytes(before, after); extra >= histBytes {
		t.Errorf("%d bytes of new anonymous mappings outlive the fit, want < %d (one histogram)", extra, histBytes)
	}
}

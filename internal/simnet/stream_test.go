package simnet

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
	"repro/internal/timegrid"
)

// equalOrBothNaN reports float equality treating NaN == NaN as true.
func equalOrBothNaN(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// assembleStream regenerates cfg through the chunked path and reassembles
// the chunks into full tensors.
func assembleStream(t *testing.T, cfg Config, chunkSectors int) (*tensor.Tensor3, *tensor.Mask, []Episode) {
	t.Helper()
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, mh := s.N(), s.Grid().Hours()
	k := tensor.NewTensor3(n, mh, NumKPIs)
	hot := tensor.NewMask(n, mh)
	var episodes []Episode
	next := 0
	if err := s.Stream(chunkSectors, func(c *Chunk) error {
		if c.Lo != next {
			t.Fatalf("chunk starts at %d, want %d", c.Lo, next)
		}
		next = c.Hi
		for r := 0; r < c.Hi-c.Lo; r++ {
			copy(k.Sector(c.Lo+r), c.K.Sector(r))
			copy(hot.Row(c.Lo+r), c.Hot.Row(r))
		}
		episodes = append(episodes, c.Episodes...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if next != n {
		t.Fatalf("stream stopped at sector %d, want %d", next, n)
	}
	return k, hot, episodes
}

// TestStreamMatchesMaterialized checks the tentpole invariant: the chunked
// stream reassembles bit-identically to the materialized Generate, at
// several chunk sizes including a degenerate one-sector chunking.
func TestStreamMatchesMaterialized(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sectors = 90
	cfg.Weeks = 5
	cfg.Seed = 7
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 64, 1024} {
		k, hot, episodes := assembleStream(t, cfg, chunk)
		if k.N != ds.K.N || k.T != ds.K.T || k.F != ds.K.F {
			t.Fatalf("chunk=%d: shape %dx%dx%d, want %dx%dx%d", chunk, k.N, k.T, k.F, ds.K.N, ds.K.T, ds.K.F)
		}
		for i, v := range k.Data {
			if !equalOrBothNaN(v, ds.K.Data[i]) {
				t.Fatalf("chunk=%d: K mismatch at flat index %d: %v vs %v", chunk, i, v, ds.K.Data[i])
			}
		}
		if hot.Rows != ds.Truth.HotDrive.Rows || hot.Cols != ds.Truth.HotDrive.Cols {
			t.Fatalf("chunk=%d: hot is %dx%d, want %dx%d", chunk, hot.Rows, hot.Cols, ds.Truth.HotDrive.Rows, ds.Truth.HotDrive.Cols)
		}
		for i := 0; i < hot.Rows; i++ {
			if !bytes.Equal(hot.Row(i), ds.Truth.HotDrive.Row(i)) {
				t.Fatalf("chunk=%d: hot row of sector %d differs", chunk, i)
			}
		}
		if len(episodes) != len(ds.Truth.Episodes) {
			t.Fatalf("chunk=%d: %d episodes, want %d", chunk, len(episodes), len(ds.Truth.Episodes))
		}
		for i, ep := range episodes {
			if ep != ds.Truth.Episodes[i] {
				t.Fatalf("chunk=%d: episode %d is %+v, want %+v", chunk, i, ep, ds.Truth.Episodes[i])
			}
		}
	}
}

// TestStreamDeterministicAcrossGOMAXPROCS mirrors
// TestGenerateDeterministicAcrossGOMAXPROCS for the chunked path: per-sector
// RNG keying must make chunks identical at any worker count.
func TestStreamDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sectors = 60
	cfg.Weeks = 4
	cfg.Seed = 11

	run := func(procs int) (*tensor.Tensor3, *tensor.Mask, []Episode) {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		k, hot, eps := assembleStream(t, cfg, 16)
		return k, hot, eps
	}
	k1, hot1, eps1 := run(1)
	k4, hot4, eps4 := run(4)
	for i, v := range k1.Data {
		if !equalOrBothNaN(v, k4.Data[i]) {
			t.Fatalf("K differs at flat index %d: %v vs %v", i, v, k4.Data[i])
		}
	}
	if !bytes.Equal(hot1.Data, hot4.Data) {
		t.Fatal("hot rows differ between 1 and 4 procs")
	}
	if len(eps1) != len(eps4) {
		t.Fatalf("episode counts differ: %d vs %d", len(eps1), len(eps4))
	}
}

// TestStreamEarlyStop checks that an emit error aborts the stream and is
// returned unchanged.
func TestStreamEarlyStop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sectors = 50
	cfg.Weeks = 4
	sentinel := errors.New("stop")
	chunks := 0
	err := GenerateStream(cfg, 10, func(c *Chunk) error {
		chunks++
		if chunks == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("stream returned %v, want sentinel", err)
	}
	if chunks != 2 {
		t.Fatalf("emit called %d times, want 2", chunks)
	}
}

// TestStreamMemoryBounded generates the first chunks of a 100k-sector
// config and checks the heap stays far below the full KPI tensor footprint:
// the acceptance criterion that streaming never materialises the tensor.
func TestStreamMemoryBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sectors = 100_000
	cfg.Weeks = 4
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mh := s.Grid().Hours()
	fullTensorBytes := int64(s.N()) * int64(mh) * NumKPIs * 8 // ~11 GiB

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	sentinel := errors.New("enough")
	chunks := 0
	err = s.Stream(DefaultChunkSectors, func(c *Chunk) error {
		if c.K.N > DefaultChunkSectors {
			t.Fatalf("chunk holds %d sectors, want <= %d", c.K.N, DefaultChunkSectors)
		}
		chunks++
		if chunks == 4 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatal(err)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// The shared state (topology, wipe plan) plus a few transient chunks is
	// tens of megabytes; the full tensor is ~11 GiB. A 5% bound leaves lots
	// of slack while still failing hard if anything materialises the tensor.
	if limit := fullTensorBytes / 20; grew > limit {
		t.Fatalf("heap grew by %d bytes streaming 100k sectors, want < %d (full tensor is %d)", grew, limit, fullTensorBytes)
	}
}

// TestStreamChunkBounds checks chunk-range validation.
func TestStreamChunkBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sectors = 10
	cfg.Weeks = 4
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{-1, 3}, {5, 5}, {0, s.N() + 1}} {
		if _, err := s.Chunk(r[0], r[1]); err == nil {
			t.Fatalf("Chunk(%d,%d) succeeded, want error", r[0], r[1])
		}
	}
	if _, err := timegrid.New(timegrid.PaperStart, cfg.Weeks); err != nil {
		t.Fatal(err)
	}
}

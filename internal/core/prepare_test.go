package core

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/forecast"
	"repro/internal/score"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// filterableDataset generates a dataset in which the missing-data filter
// drops some sectors, so selection has rows to slide over.
func filterableDataset(t *testing.T) *simnet.Dataset {
	t.Helper()
	gen := simnet.DefaultConfig()
	gen.Seed, gen.Sectors, gen.Weeks, gen.BadSectorFrac = 3, 150, 8, 0.1
	ds, err := simnet.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d values, want %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s differs at %d: %x vs %x", what, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
}

// TestFromDatasetInPlaceMatchesCopy: preparing a pipeline filters its
// dataset in place, and the result equals the one built the copying way
// from a copy taken before the call — same K bits (NaN payloads included),
// same survivors, same daily scores and dataset fingerprint — so an
// artifact trained on copy-filtered data passes CheckArtifact.
func TestFromDatasetInPlaceMatchesCopy(t *testing.T) {
	ds := filterableDataset(t)
	survivor := score.FilterSectors(ds.K, 0.5)[10]
	ds.K.Set(survivor, 5, 3, math.Float64frombits(0x7ff8_0000_dead_beef))
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ref, err := simnet.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	keep := score.FilterSectors(ref.K, 0.5)
	refK := tensor.NewTensor3(len(keep), ref.K.T, ref.K.F)
	for dst, src := range keep {
		copy(refK.Sector(dst), ref.K.Sector(src))
	}
	refSet := score.Compute(refK, score.DefaultWeighting())
	refCtx, err := forecast.NewContext(refK, ref.Grid.Calendar(), refSet, 3)
	if err != nil {
		t.Fatal(err)
	}
	refCtx.TrainDays = 3

	p, err := FromDataset(ds, Config{Seed: 3, TrainDays: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Dataset != ds {
		t.Fatal("pipeline does not hold the caller's dataset")
	}
	if p.Discarded != ref.N()-len(keep) || p.Discarded == 0 {
		t.Fatalf("discarded %d, want %d (> 0)", p.Discarded, ref.N()-len(keep))
	}
	sameBits(t, "K", p.Dataset.K.Data, refK.Data)
	sameBits(t, "Sd", p.Scores.Sd.Data, refSet.Sd.Data)
	for id, old := range keep {
		got, want := p.Dataset.Topo.Sectors[id], ref.Topo.Sectors[old]
		if got.ID != id || got.X != want.X || got.Y != want.Y || got.Profile != want.Profile {
			t.Fatalf("sector %d (was %d): %+v, want %+v", id, old, got, want)
		}
		sameBits(t, "HotDrive row", p.Dataset.Truth.HotDrive.Row(id), ref.Truth.HotDrive.Row(old))
	}
	for _, ep := range p.Dataset.Truth.Episodes {
		if ep.Sector < 0 || ep.Sector >= len(keep) {
			t.Fatalf("episode on sector %d of %d", ep.Sector, len(keep))
		}
	}
	if a, b := p.Ctx.DatasetFingerprint(), refCtx.DatasetFingerprint(); a != b {
		t.Fatalf("fingerprint %016x in place, %016x by copy", a, b)
	}
	tr, err := (forecast.AverageModel{}).Fit(refCtx, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CheckArtifact(tr); err != nil {
		t.Fatalf("artifact trained on copy-filtered data rejected: %v", err)
	}
}

// TestFromDatasetAllocatesNoSecondK guards the in-place filter: preparing a
// pipeline allocates well under one K (the score matrices are about a
// tenth of it), where a copying filter alone would allocate ~97% of K.
func TestFromDatasetAllocatesNoSecondK(t *testing.T) {
	ds := filterableDataset(t)
	kBytes := uint64(8 * len(ds.K.Data))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := FromDataset(ds, Config{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("FromDataset allocated %d bytes, %.1f%% of K", got, 100*float64(got)/float64(kBytes))
	if got >= kBytes/2 {
		t.Fatalf("FromDataset allocated %d bytes, want < half of K's %d", got, kBytes)
	}
}

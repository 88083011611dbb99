package forecast

import (
	"path/filepath"
	"testing"
)

// TestArtifactMmapLoad: LoadModelFile serves flat-payload classifiers
// straight from a memory mapping (where the platform has one) — after
// the checksum gate passes — with predictions bit-identical to a heap
// decode of the same bytes, and the engine's shape surviving the trip.
func TestArtifactMmapLoad(t *testing.T) {
	c := testContext(t, 100, 8, 53)
	c.ForestTrees = 5
	const fitT, h, w = 30, 2, 5
	for _, m := range flatModels() {
		tr, err := m.Fit(c, BeHot, fitT, h, w)
		if err != nil {
			t.Fatalf("%s: fit: %v", m.Name(), err)
		}
		path := filepath.Join(t.TempDir(), "model.hotm")
		if err := SaveModel(path, tr); err != nil {
			t.Fatalf("%s: save: %v", m.Name(), err)
		}
		got, err := LoadModelFile(path)
		if err != nil {
			t.Fatalf("%s: load: %v", m.Name(), err)
		}
		a, ok := got.(*classifierArtifact)
		if !ok {
			t.Fatalf("%s: loaded %T", m.Name(), got)
		}
		fit := tr.(*classifierArtifact).engine
		if a.engine.Post() != fit.Post() || a.engine.NumTrees() != fit.NumTrees() {
			t.Fatalf("%s: engine post-step %d with %d trees after load, fit had %d with %d",
				m.Name(), a.engine.Post(), a.engine.NumTrees(), fit.Post(), fit.NumTrees())
		}
		if a.backing != nil {
			if !a.backing.Mapped() || a.MmapBytes() <= 0 {
				t.Fatalf("%s: backing file held but not mapped (%d bytes)", m.Name(), a.MmapBytes())
			}
		} else if a.MmapBytes() != 0 {
			t.Fatalf("%s: heap-resident artifact reports %d mmap bytes", m.Name(), a.MmapBytes())
		}
		want, err := tr.Predict(c, fitT, w)
		if err != nil {
			t.Fatal(err)
		}
		have, err := got.Predict(c, fitT, w)
		if err != nil {
			t.Fatalf("%s: mmap predict: %v", m.Name(), err)
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s: sector %d: mmap-loaded %v, fit %v", m.Name(), i, have[i], want[i])
			}
		}
	}
}

package forecast

import (
	"fmt"
	"sync"
	"testing"
)

// flatModels returns one model per classifier kind (tree, forest, GBT),
// thinned for test speed.
func flatModels() []Model {
	gbt := NewGBT()
	gbt.Config.Rounds = 8
	return []Model{NewTreeModel(), NewRFR(), gbt}
}

// TestArtifactFlatMatchesWalked: Predict through the artifact's flat batch
// engine — which reads only the columns the model splits on — must be
// bit-identical, for every classifier model, to walking the pointer
// learner the engine was flattened from over the full prediction matrix,
// and every Predict is one counted flat-engine batch call.
func TestArtifactFlatMatchesWalked(t *testing.T) {
	gbt := NewGBT()
	gbt.Config.Rounds = 8
	models := []Model{NewTreeModel(), NewRFR(), NewRFF1(), NewRFF2(), gbt}
	const fitT, h, w = 30, 2, 5
	c := testContext(t, 120, 8, 41)
	c.ForestTrees = 6
	for _, m := range models {
		name := m.Name()
		lf, ok := m.(interface {
			fitLearner(c *Context, target Target, t, h, w int) (Trained, walkedLearner, error)
		})
		if !ok {
			t.Fatalf("%s: model %T has no fitLearner", name, m)
		}
		tr, learner, err := lf.fitLearner(c, BeHot, fitT, h, w)
		if err != nil {
			t.Fatalf("%s: fit: %v", name, err)
		}
		ca, ok := tr.(*classifierArtifact)
		if !ok || learner == nil {
			t.Fatalf("%s: fit returned %T (learner %v), want classifier artifact", name, tr, learner != nil)
		}
		if ca.FlatBytes() <= 0 {
			t.Fatalf("%s: artifact not flattened at fit", name)
		}
		if ca.FeaturesRead() < 1 || ca.FeaturesRead() > ca.FeatureWidth() {
			t.Fatalf("%s: reads %d of %d columns", name, ca.FeaturesRead(), ca.FeatureWidth())
		}
		before := BatchPredictCalls()
		flat, err := ca.Predict(c, fitT, w)
		if err != nil {
			t.Fatalf("%s: flat predict: %v", name, err)
		}
		if BatchPredictCalls() != before+1 {
			t.Fatalf("%s: flat predict did not count a batch call", name)
		}
		pmat, err := c.FeatureMatrix(ca.extractor, fitT, w)
		if err != nil {
			t.Fatalf("%s: prediction matrix: %v", name, err)
		}
		if len(flat) != c.Sectors() || len(pmat.Data) != c.Sectors()*ca.FeatureWidth() {
			t.Fatalf("%s: shape mismatch: flat %d, matrix %d, sectors %d x width %d",
				name, len(flat), len(pmat.Data), c.Sectors(), ca.FeatureWidth())
		}
		probs := make([]float64, 2)
		for i := range flat {
			learner.PredictProbaInto(pmat.Data[i*ca.FeatureWidth():(i+1)*ca.FeatureWidth()], probs)
			if flat[i] != probs[1] {
				t.Fatalf("%s: sector %d: flat %v, walked %v", name, i, flat[i], probs[1])
			}
		}
	}
}

// TestArtifactFlatRoundTrip: the .hotm envelope carries the flat engine
// itself; decoding it yields the same footprint and bit-identical scores —
// the serialized form can never drift from the fit-time compilation.
func TestArtifactFlatRoundTrip(t *testing.T) {
	c := testContext(t, 100, 8, 43)
	c.ForestTrees = 5
	const fitT, h, w = 30, 3, 5
	for _, m := range flatModels() {
		tr, err := m.Fit(c, BecomeHot, fitT, h, w)
		if err != nil {
			t.Fatalf("%s: fit: %v", m.Name(), err)
		}
		data, err := EncodeModel(tr)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Name(), err)
		}
		got, err := DecodeModel(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Name(), err)
		}
		fitArt := tr.(*classifierArtifact)
		decArt, ok := got.(*classifierArtifact)
		if !ok {
			t.Fatalf("%s: decode returned %T", m.Name(), got)
		}
		if decArt.FlatBytes() != fitArt.FlatBytes() || decArt.FlatBytes() <= 0 {
			t.Fatalf("%s: flat footprint drifted across round trip: fit %d, decoded %d",
				m.Name(), fitArt.FlatBytes(), decArt.FlatBytes())
		}
		if got.Bytes() <= decArt.FlatBytes() {
			t.Fatalf("%s: Bytes() %d does not budget the flat engine (%d)", m.Name(), got.Bytes(), decArt.FlatBytes())
		}
		want, err := tr.Predict(c, fitT, w)
		if err != nil {
			t.Fatalf("%s: predict: %v", m.Name(), err)
		}
		have, err := got.Predict(c, fitT, w)
		if err != nil {
			t.Fatalf("%s: decoded predict: %v", m.Name(), err)
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("%s: sector %d: %v != %v after round trip", m.Name(), i, want[i], have[i])
			}
		}
	}
}

// TestArtifactFlatConcurrentPredict: the flat engine is read-only after
// Flatten, so one artifact must serve concurrent Predict calls (as
// hotserve does) without races or score divergence. Run under -race.
func TestArtifactFlatConcurrentPredict(t *testing.T) {
	c := testContext(t, 100, 8, 47)
	c.ForestTrees = 5
	const fitT, h, w = 30, 2, 5
	m := NewRFR()
	tr, err := m.Fit(c, BeHot, fitT, h, w)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Predict(c, fitT, w)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				got, err := tr.Predict(c, fitT, w)
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs <- fmt.Errorf("sector %d: concurrent predict %v, want %v", i, got[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

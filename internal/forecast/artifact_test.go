package forecast

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// artifactModels returns one instance of every model kind, with the GBT
// thinned for test speed.
func artifactModels() []Model {
	gbt := NewGBT()
	gbt.Config.Rounds = 8
	return append(AllModels(), gbt)
}

// TestArtifactRoundTripAllModels: encode -> decode -> Predict must be
// bit-identical to the fitted artifact, for every model kind, at the fit
// day and at a later (serving) day.
func TestArtifactRoundTripAllModels(t *testing.T) {
	c := testContext(t, 100, 8, 31)
	c.ForestTrees = 6
	const fitT, h, w = 30, 2, 5
	for _, m := range artifactModels() {
		tr, err := m.Fit(c, BeHot, fitT, h, w)
		if err != nil {
			t.Fatalf("%s: fit: %v", m.Name(), err)
		}
		data, err := EncodeModel(tr)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Name(), err)
		}
		again, err := EncodeModel(tr)
		if err != nil || string(again) != string(data) {
			t.Fatalf("%s: encoding not deterministic", m.Name())
		}
		got, err := DecodeModel(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Name(), err)
		}
		if got.ModelName() != tr.ModelName() || got.Target() != tr.Target() ||
			got.Horizon() != h || got.Window() != w || got.Cutoff() != fitT-h {
			t.Fatalf("%s: identity changed: %s/%v/%d/%d/%d", m.Name(),
				got.ModelName(), got.Target(), got.Horizon(), got.Window(), got.Cutoff())
		}
		for _, day := range []int{fitT, fitT + 2} { // fit day, then serving a later day
			want, err := tr.Predict(c, day, w)
			if err != nil {
				t.Fatalf("%s: predict t=%d: %v", m.Name(), day, err)
			}
			have, err := got.Predict(c, day, w)
			if err != nil {
				t.Fatalf("%s: decoded predict t=%d: %v", m.Name(), day, err)
			}
			for i := range want {
				if want[i] != have[i] {
					t.Fatalf("%s: t=%d sector %d: %v != %v after round trip", m.Name(), day, i, want[i], have[i])
				}
			}
		}
	}
}

// TestPredictIntoReusesDst: PredictInto overwrites a large enough dst in
// place, whatever it held, and allocates when dst is too small; either way
// its scores are bit-identical to Predict's, for every model kind.
func TestPredictIntoReusesDst(t *testing.T) {
	c := testContext(t, 100, 8, 31)
	c.ForestTrees = 6
	const fitT, h, w, day = 30, 2, 5, 32
	n := c.Sectors()
	for _, m := range artifactModels() {
		tr, err := m.Fit(c, BeHot, fitT, h, w)
		if err != nil {
			t.Fatalf("%s: fit: %v", m.Name(), err)
		}
		want, err := tr.Predict(c, day, w)
		if err != nil {
			t.Fatalf("%s: predict: %v", m.Name(), err)
		}
		stale := make([]float64, n+5)
		for i := range stale {
			stale[i] = math.NaN()
		}
		for name, dst := range map[string][]float64{"stale": stale[:1], "short": stale[: 0 : n-1], "nil": nil} {
			got, err := tr.PredictInto(c, day, w, dst)
			if err != nil {
				t.Fatalf("%s, dst %s: %v", m.Name(), name, err)
			}
			if reused := &got[0] == &stale[0]; reused != (name == "stale") {
				t.Fatalf("%s, dst %s: reused dst = %v", m.Name(), name, reused)
			}
			if !slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("%s, dst %s: PredictInto diverges from Predict", m.Name(), name)
			}
		}
	}
}

// TestArtifactRoundTripFallback: the degenerate-labels fallback artifact
// serializes like any other kind and predicts the Average ranking.
func TestArtifactRoundTripFallback(t *testing.T) {
	c := testContext(t, 60, 8, 32)
	tr := Trained(&baselineArtifact{artifactMeta{name: "RF-F1", target: BecomeHot, h: 2, w: 5, cutoff: 28,
		fp: c.DatasetFingerprint()}, kindFallback})
	data, err := EncodeModel(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Predict(c, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Predict(c, 30, 5)
	if err != nil {
		t.Fatal(err)
	}
	avg, err := (AverageModel{}).Forecast(c, BecomeHot, 30, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != have[i] || want[i] != avg[i] {
			t.Fatalf("sector %d: fallback %v / decoded %v / Average %v", i, want[i], have[i], avg[i])
		}
	}
}

// TestArtifactDecodeRejectsCorruption: truncations, bad magic, version
// mismatches, unknown kinds and trailing bytes must all error — never
// panic, never decode silently.
func TestArtifactDecodeRejectsCorruption(t *testing.T) {
	c := testContext(t, 80, 8, 33)
	c.ForestTrees = 4
	tr, err := NewRFF1().Fit(c, BeHot, 28, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeModel(tr)
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation must fail (step keeps the loop fast on big payloads).
	for cut := 0; cut < len(data); cut += 11 {
		if _, err := DecodeModel(data[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly", cut, len(data))
		}
	}

	// Bad magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := DecodeModel(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted (err=%v)", err)
	}

	// Version mismatch (little-endian u16 at offset 4).
	bad = append([]byte(nil), data...)
	bad[4] = byte(ArtifactVersion + 1)
	if _, err := DecodeModel(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted (err=%v)", err)
	}

	// Unknown kind byte (offset 6).
	bad = append([]byte(nil), data...)
	bad[6] = 0xEE
	if _, err := DecodeModel(bad); err == nil {
		t.Fatal("unknown artifact kind accepted")
	}

	// Trailing bytes.
	if _, err := DecodeModel(append(append([]byte(nil), data...), 0, 1, 2)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestSaveLoadModelFile: the disk round trip (hotforecast -model-out,
// hotserve -models) preserves predictions bit-exactly.
func TestSaveLoadModelFile(t *testing.T) {
	c := testContext(t, 80, 8, 34)
	tr, err := NewTreeModel().Fit(c, BeHot, 28, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/model.hotm"
	if err := SaveModel(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Predict(c, 28, 3)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Predict(c, 28, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("sector %d differs after disk round trip", i)
		}
	}
	if _, err := LoadModelFile(t.TempDir() + "/missing.hotm"); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestClassifierArtifactRejectsMismatchedWindow: predicting with a window
// other than the trained one must be rejected for every artifact kind —
// including fixed-width extractors and baselines, whose feature widths do
// not betray the mismatch.
func TestClassifierArtifactRejectsMismatchedWindow(t *testing.T) {
	c := testContext(t, 80, 8, 35)
	c.ForestTrees = 4
	tr, err := NewRFF1().Fit(c, BeHot, 28, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Predict(c, 28, 5); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("mismatched window accepted (err=%v)", err)
	}
	// RF-F2's HandCrafted features have w-independent width; the window
	// check must still fire.
	rf2, err := NewRFF2().Fit(c, BeHot, 28, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rf2.Predict(c, 28, 5); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("fixed-width extractor window mismatch accepted (err=%v)", err)
	}
	avg, err := (AverageModel{}).Fit(c, BeHot, 28, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := avg.Predict(c, 28, 5); err == nil || !strings.Contains(err.Error(), "window") {
		t.Fatalf("baseline window mismatch accepted (err=%v)", err)
	}
}

// TestArtifactDecodeRejectsWidthMismatch: an artifact whose width field
// no longer covers the columns its learner reads would gather features
// the model never saw; decode must reject it instead.
func TestArtifactDecodeRejectsWidthMismatch(t *testing.T) {
	c := testContext(t, 80, 8, 41)
	tr, err := NewTreeModel().Fit(c, BeHot, 28, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	art := *(tr.(*classifierArtifact))
	art.width = art.cols[len(art.cols)-1] // the last column falls outside
	data, err := EncodeModel(&art)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeModel(data); err == nil || !strings.Contains(err.Error(), "width") {
		t.Fatalf("width/column mismatch accepted (err=%v)", err)
	}
}

// corruptColumnArtifacts re-encodes a fitted forest with each way its
// column list can disagree with the envelope's invariants. Every envelope
// carries valid checksums, so only decode's structural checks stand
// between it and a panic in Predict.
func corruptColumnArtifacts(t testing.TB, tr Trained) map[string][]byte {
	t.Helper()
	ca := tr.(*classifierArtifact)
	if len(ca.cols) < 2 {
		t.Fatalf("need at least 2 columns to corrupt, artifact reads %d", len(ca.cols))
	}
	n := len(ca.cols)
	swapped := slices.Clone(ca.cols)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	repeated := slices.Clone(ca.cols)
	repeated[1] = repeated[0]
	outside := slices.Clone(ca.cols)
	outside[n-1] = ca.width
	// One well-formed column more than the engine reads.
	more := slices.Clone(ca.cols)
	for j := 0; j < ca.width; j++ {
		if !slices.Contains(ca.cols, j) {
			more = append(more, j)
			break
		}
	}
	slices.Sort(more)
	cases := map[string][]int{
		"empty":      nil,
		"descending": swapped,
		"repeated":   repeated,
		"outside":    outside,
		"fewer":      ca.cols[:n-1],
		"more":       more,
	}
	out := map[string][]byte{}
	for name, cols := range cases {
		art := *ca
		art.cols = cols
		data, err := EncodeModel(&art)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		out[name] = data
	}
	return out
}

// TestArtifactDecodeRejectsBadColumns: a classifier's column list must be
// non-empty, strictly ascending, inside the feature width, and exactly as
// long as its engine's feature count.
func TestArtifactDecodeRejectsBadColumns(t *testing.T) {
	c := testContext(t, 80, 8, 41)
	c.ForestTrees = 3
	tr, err := NewRFF1().Fit(c, BeHot, 28, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range corruptColumnArtifacts(t, tr) {
		if _, err := DecodeModel(data); err == nil || !strings.Contains(err.Error(), "column") {
			t.Errorf("%s: corrupt column list accepted (err=%v)", name, err)
		}
	}
}

// TestArtifactFingerprintRoundTrip: Fit stamps the training context's
// dataset fingerprint, the envelope carries it bit-exactly, and
// CheckArtifact accepts the training dataset while rejecting a different
// one — the guard behind hotserve's load-time mismatch errors.
func TestArtifactFingerprintRoundTrip(t *testing.T) {
	c := testContext(t, 80, 8, 36)
	other := testContext(t, 80, 8, 37) // different seed -> different dataset
	if c.DatasetFingerprint() == 0 || c.DatasetFingerprint() == other.DatasetFingerprint() {
		t.Fatalf("fingerprints not distinguishing datasets: %016x vs %016x",
			c.DatasetFingerprint(), other.DatasetFingerprint())
	}
	if c.DatasetFingerprint() != c.DatasetFingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
	tr, err := (AverageModel{}).Fit(c, BeHot, 28, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.DatasetFingerprint() != c.DatasetFingerprint() {
		t.Fatalf("fit stamped %016x, context is %016x", tr.DatasetFingerprint(), c.DatasetFingerprint())
	}
	data, err := EncodeModel(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.DatasetFingerprint() != tr.DatasetFingerprint() {
		t.Fatalf("fingerprint lost in round trip: %016x != %016x",
			got.DatasetFingerprint(), tr.DatasetFingerprint())
	}
	if err := c.CheckArtifact(got); err != nil {
		t.Fatalf("training context rejected its own artifact: %v", err)
	}
	if err := other.CheckArtifact(got); err == nil || !strings.Contains(err.Error(), "different dataset") {
		t.Fatalf("foreign dataset accepted (err=%v)", err)
	}
}

// TestArtifactRejectsForeignVersions: ArtifactVersion is the only
// envelope this build reads. Envelopes stamped with any other version —
// the retired pre-checksum formats included — fail DecodeModel and
// LoadModelFile with an error naming the version, however intact the
// rest of the file is.
func TestArtifactRejectsForeignVersions(t *testing.T) {
	data := encodeTestArtifact(t)
	dir := t.TempDir()
	for _, v := range []uint16{0, 1, 2, 3, 4, 5, ArtifactVersion + 1} {
		t.Run(fmt.Sprintf("version-%d", v), func(t *testing.T) {
			mut := append([]byte(nil), data...)
			binary.LittleEndian.PutUint16(mut[4:], v)
			want := fmt.Sprintf("artifact version %d unsupported", v)
			if _, err := DecodeModel(mut); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("DecodeModel: err=%v, want %q", err, want)
			}
			path := filepath.Join(dir, fmt.Sprintf("v%d.hotm", v))
			if err := os.WriteFile(path, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadModelFile(path); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("LoadModelFile: err=%v, want %q", err, want)
			}
		})
	}
}

// TestArtifactRejectsZeroFingerprint: a zero dataset fingerprint cannot
// skip the wrong-dataset check. Decode rejects an envelope whose checksums
// are valid but whose fingerprint is zero, and CheckArtifact rejects an
// in-memory artifact carrying one.
func TestArtifactRejectsZeroFingerprint(t *testing.T) {
	data := encodeTestArtifact(t)
	// The fingerprint follows kind, target, h, w and cutoff in the meta
	// section; re-stamp the sums so only the zero field is wrong.
	const fpOff = envHeaderSize + 1 + 1 + 4 + 4 + 4
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(mut[fpOff:], 0)
	stampEnvelope(mut, int(binary.LittleEndian.Uint32(mut[envOffPayload:])))
	if _, err := VerifyEnvelope(mut); err != nil {
		t.Fatalf("re-stamped envelope fails its checksums: %v", err)
	}
	if _, err := DecodeModel(mut); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("zero-fingerprint envelope decoded (err=%v)", err)
	}
	path := filepath.Join(t.TempDir(), "zero.hotm")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(path); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("zero-fingerprint file loaded (err=%v)", err)
	}
	c := testContext(t, 60, 8, 38)
	zero := &baselineArtifact{artifactMeta{name: "Average", target: BeHot, h: 1, w: 3, cutoff: 27}, kindAverage}
	if err := c.CheckArtifact(zero); err == nil || !strings.Contains(err.Error(), "different dataset") {
		t.Fatalf("zero-fingerprint artifact passed CheckArtifact (err=%v)", err)
	}
}

// TestBaselineArtifactsRejectEdgePredict: baselines read day t itself
// (labels, or the day-t-inclusive score window), so t == Days() must be
// rejected rather than silently averaging a clamped window; Random reads
// no data and still serves the edge.
func TestBaselineArtifactsRejectEdgePredict(t *testing.T) {
	c := testContext(t, 60, 6, 42)
	edge := c.Days()
	for _, m := range Baselines() {
		tr, err := m.Fit(c, BeHot, edge-6, 2, 3)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		_, err = tr.Predict(c, edge, 3)
		if m.Name() == "Random" {
			if err != nil {
				t.Fatalf("Random edge predict: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s predicted at t=Days() from a clamped window", m.Name())
		}
	}
}

package forecast

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/binenc"
	"repro/internal/faultfs"
	"repro/internal/featcache"
	"repro/internal/features"
	"repro/internal/mltree"
	"repro/internal/mmapfile"
	"repro/internal/score"
)

// Trained is an immutable fitted-model artifact: the output of Model.Fit
// and the unit the trained-model cache stores, the artifact codec
// serializes, and cmd/hotserve preloads. An artifact is safe for
// concurrent Predict calls; it never mutates after Fit.
//
// Predict scores every sector from the w-day feature window ending
// (exclusive) at day t — day t need not equal the fit day, which is the
// serving story: fit once at the edge of the data, then predict each new
// day from the same artifact. The Context passed to Predict supplies the
// data; it must describe the same network the artifact was trained on.
type Trained interface {
	// ModelName is the fitted model's paper name (Random ... GBT-F1).
	ModelName() string
	// Target is the forecast variable the artifact was fitted for.
	Target() Target
	// Horizon is the Eq. 7 label gap h: scores at day t rank sectors for
	// day t+h.
	Horizon() int
	// Window is the past-window length w the artifact was fitted with.
	Window() int
	// Cutoff is the train-data boundary t-h at fit time: the exclusive end
	// day of the latest feature window the fit consumed.
	Cutoff() int
	// Predict returns one ranking score per sector for day t+Horizon(),
	// from the window of w days ending at t.
	Predict(c *Context, t, w int) ([]float64, error)
	// PredictInto is Predict writing the scores into dst[:c.Sectors()]
	// when dst has the capacity, and into a fresh slice otherwise; it
	// returns the slice written. Every element is overwritten, so dst's
	// stale contents never leak into the scores.
	PredictInto(c *Context, t, w int, dst []float64) ([]float64, error)
	// DatasetFingerprint is Context.DatasetFingerprint of the training data,
	// stamped at Fit time; never zero (decode rejects a zero fingerprint).
	DatasetFingerprint() uint64
	// Bytes estimates the artifact's in-memory footprint (cache budgets).
	Bytes() int64
}

// artifactMeta is the identity block shared by every artifact kind.
type artifactMeta struct {
	name   string
	target Target
	h, w   int
	cutoff int
	fp     uint64 // training-dataset fingerprint; never 0
}

func (m artifactMeta) ModelName() string          { return m.name }
func (m artifactMeta) Target() Target             { return m.target }
func (m artifactMeta) Horizon() int               { return m.h }
func (m artifactMeta) Window() int                { return m.w }
func (m artifactMeta) Cutoff() int                { return m.cutoff }
func (m artifactMeta) DatasetFingerprint() uint64 { return m.fp }

// newMeta assembles the shared artifact identity for a fit at
// (target, t, h, w), stamping the context's dataset fingerprint.
func newMeta(c *Context, name string, target Target, t, h, w int) artifactMeta {
	return artifactMeta{name: name, target: target, h: h, w: w, cutoff: t - h,
		fp: c.DatasetFingerprint()}
}

// Artifact kind tags — also the on-disk kind byte, so the values are part
// of the codec and must never be renumbered.
const (
	kindRandom   uint8 = 1
	kindPersist  uint8 = 2
	kindAverage  uint8 = 3
	kindTrend    uint8 = 4
	kindFallback uint8 = 5 // degenerate-labels fit: predicts the Average ranking
	kindTree     uint8 = 6
	kindForest   uint8 = 7
	kindGBT      uint8 = 8
)

// kindPost is the per-row step each classifier kind's engine applies.
var kindPost = map[uint8]mltree.Post{kindTree: mltree.PostNone, kindForest: mltree.PostMean, kindGBT: mltree.PostLogistic}

// baselineArtifact is the state of a fitted baseline: nothing beyond the
// task identity, because the baselines score directly from the serving
// context's data. kindFallback is a classifier fit that hit a degenerate
// training day (single-class labels) and degraded to the Average ranking,
// the strongest baseline — matching the pre-split Forecast behaviour.
type baselineArtifact struct {
	artifactMeta
	kind uint8
}

// Bytes implements Trained; baseline artifacts are nominal-sized.
func (a *baselineArtifact) Bytes() int64 { return 96 }

// Predict implements Trained, scoring day t+h from the window ending at t
// exactly as the corresponding baseline's pre-split Forecast did. Every
// kind except Random reads day t itself (labels, or the day-t-inclusive
// Eq. 3 window of the daily scores), so those kinds additionally require
// t < Days(); with a clamped window score.Mu would silently average fewer
// days and bias the ranking.
func (a *baselineArtifact) Predict(c *Context, t, w int) ([]float64, error) {
	return a.PredictInto(c, t, w, nil)
}

// PredictInto implements Trained.
func (a *baselineArtifact) PredictInto(c *Context, t, w int, dst []float64) ([]float64, error) {
	if err := c.CheckPredict(t, w); err != nil {
		return nil, err
	}
	if w != a.w {
		return nil, fmt.Errorf("forecast: %s artifact trained with window w=%d, asked to predict with w=%d", a.name, a.w, w)
	}
	if a.kind != kindRandom && t >= c.Days() {
		return nil, fmt.Errorf("forecast: %s needs data at day t=%d, grid has %d days", a.name, t, c.Days())
	}
	out := sized(dst, c.Sectors())
	switch a.kind {
	case kindRandom:
		rng := randomRNG(c, t, a.h)
		for i := range out {
			out[i] = rng.Float64()
		}
	case kindPersist:
		y := c.Labels(a.target)
		for i := range out {
			out[i] = y.At(i, t)
		}
	case kindAverage, kindFallback:
		for i := range out {
			out[i] = sanitizeScore(score.Mu(t, w, c.Sd.Row(i)))
		}
	case kindTrend:
		half := w / 2
		for i := range out {
			row := c.Sd.Row(i)
			avg := sanitizeScore(score.Mu(t, w, row))
			if half < 1 {
				out[i] = avg
				continue
			}
			recent := sanitizeScore(score.Mu(t, half, row))
			earlier := sanitizeScore(score.Mu(t-half, half, row))
			out[i] = avg + (recent-earlier)/float64(half)
		}
	default:
		return nil, fmt.Errorf("forecast: unknown baseline artifact kind %d", a.kind)
	}
	return out, nil
}

// classifierArtifact is a fitted tree-based model: the compiled flat
// inference engine (see mltree/flat.go) plus the feature representation
// needed to rebuild prediction matrices. Fit flattens the learner against
// the features it splits on and keeps only the engine; decode reads the
// engine straight from the envelope. Predict builds just those columns and
// scores the whole sector block per tree pass with zero per-sector
// allocation.
type classifierArtifact struct {
	artifactMeta
	kind      uint8
	extractor features.Extractor
	width     int // trained feature-vector length; Predict windows must match
	// cols are the ascending feature indices, out of width, the engine
	// reads: its NumFeatures is len(cols) and its rows hold only these.
	cols []int
	// colsKey is cols as the prediction matrix's exact cache key component.
	colsKey string
	engine  *mltree.Flat
	// importances of the fit (mean decrease in impurity); nil for GBT.
	importances []float64
	// backing keeps an mmap'd artifact file alive while the flat engine
	// aliases its sections (zero-copy decode); nil for heap-decoded
	// artifacts. mmapBytes is the mapped file size, 0 when heap-resident.
	backing   *mmapfile.File
	mmapBytes int64
}

// BatchPredictCalls reports how many flat-engine batch evaluations have
// served Predict calls in this process, for operator visibility (hotserve
// /healthz and the forecast_batch_predicts_total series).
func BatchPredictCalls() uint64 { return batchPredictsTotal.Value() }

// FlatModel is implemented by artifacts carrying a compiled batch
// inference engine; FlatBytes reports its footprint.
type FlatModel interface {
	FlatBytes() int64
}

// MmapBytes reports the size of the memory-mapped artifact file backing
// this model's flat sections, or 0 when the model is heap-resident.
func (a *classifierArtifact) MmapBytes() int64 { return a.mmapBytes }

// FlatBytes implements FlatModel.
func (a *classifierArtifact) FlatBytes() int64 { return a.engine.FlatBytes() }

// FeaturesRead is how many feature columns Predict builds: the distinct
// features the model splits on.
func (a *classifierArtifact) FeaturesRead() int { return len(a.cols) }

// FeatureWidth is the extractor's full feature-vector length at the
// artifact's window, of which Predict reads FeaturesRead columns.
func (a *classifierArtifact) FeatureWidth() int { return a.width }

// Bytes implements Trained.
func (a *classifierArtifact) Bytes() int64 {
	return int64(160) + int64(len(a.importances))*8 + int64(len(a.cols))*8 +
		int64(len(a.colsKey)) + a.FlatBytes()
}

// Predict implements Trained: build (or fetch from the feature cache) the
// all-sector matrix of the artifact's columns for the window ending at t
// and score every row, per Eq. 6, in one flat-engine batch call for the
// whole sector block.
func (a *classifierArtifact) Predict(c *Context, t, w int) ([]float64, error) {
	return a.PredictInto(c, t, w, nil)
}

// PredictInto implements Trained.
func (a *classifierArtifact) PredictInto(c *Context, t, w int, dst []float64) ([]float64, error) {
	if err := c.CheckPredict(t, w); err != nil {
		return nil, err
	}
	// The width check below is blind to w for fixed-width extractors
	// (HandCrafted), so the window itself is part of the contract: a
	// mismatch would silently score features the model never saw.
	if w != a.w {
		return nil, fmt.Errorf("forecast: %s artifact trained with window w=%d, asked to predict with w=%d", a.name, a.w, w)
	}
	if got := a.extractor.Width(c.View, w); got != a.width {
		return nil, fmt.Errorf("forecast: %s artifact trained on %d features, window w=%d yields %d",
			a.name, a.width, w, got)
	}
	f0 := time.Now()
	pmat, err := c.projectedMatrix(a.extractor, t, w, a.cols, a.colsKey)
	if err != nil {
		return nil, fmt.Errorf("forecast: building prediction matrix: %w", err)
	}
	featureFetchSeconds.ObserveDuration(time.Since(f0))
	n := c.Sectors()
	out := sized(dst, n)
	d0 := time.Now()
	a.engine.ScoreBatch(pmat.Data, n, out)
	predictDescendSeconds.ObserveDuration(time.Since(d0))
	batchPredictsTotal.Inc()
	return out, nil
}

// sized returns dst[:n] when dst has the capacity, else a fresh n-slice.
func sized(dst []float64, n int) []float64 {
	if cap(dst) >= n {
		return dst[:n]
	}
	return make([]float64, n)
}

// Importances returns the artifact's feature importances (nil for GBT and
// baseline artifacts). The exported accessor lets tooling inspect loaded
// artifacts; the slice is shared and must not be written.
func (a *classifierArtifact) Importances() []float64 { return a.importances }

// Artifact envelope constants: 4-byte magic, then a version word. Decoding
// refuses every version but ArtifactVersion, so incompatible format changes
// must bump it.
var artifactMagic = [4]byte{'H', 'O', 'T', 'M'}

// ArtifactVersion is the only serialization format version this build
// writes and reads. The envelope opens with a fixed 42-byte integrity block
// (see integrity.go) carrying the payload-section offset and per-section
// content checksums, so the load path verifies the whole file in one
// streaming pass before aliasing anything. A classifier's meta section
// carries the feature columns its engine reads (version 5). Classifier
// payloads are the compiled flat engine's own arrays as 8-byte-aligned
// little-endian sections (aligned from the file's first byte), so a decode
// over an aligned buffer — in particular a memory-mapped file — aliases
// the sections in place and costs O(1) in the node count. Version 6 made
// that payload the quantized-code engine alone: its code-column map and
// cut tables, with no float node section.
const ArtifactVersion uint16 = 6

// EncodeModel serializes a trained artifact to the versioned binary
// format. Decoding the result with DecodeModel yields an artifact whose
// Predict is bit-identical on any context.
func EncodeModel(tr Trained) ([]byte, error) {
	var kind uint8
	var ca *classifierArtifact
	switch a := tr.(type) {
	case *baselineArtifact:
		kind = a.kind
	case *classifierArtifact:
		kind, ca = a.kind, a
	default:
		return nil, fmt.Errorf("forecast: cannot encode artifact type %T", tr)
	}
	b := append([]byte(nil), artifactMagic[:]...)
	b = binenc.AppendU16(b, ArtifactVersion)
	// Reserve the integrity block (payload offset + two section sums);
	// stampEnvelope backpatches it once the sections exist.
	b = append(b, make([]byte, envHeaderSize-len(b))...)
	b = binenc.AppendU8(b, kind)
	b = binenc.AppendU8(b, uint8(tr.Target()))
	b = binenc.AppendU32(b, uint32(tr.Horizon()))
	b = binenc.AppendU32(b, uint32(tr.Window()))
	b = binenc.AppendI32(b, int32(tr.Cutoff()))
	b = binenc.AppendU64(b, tr.DatasetFingerprint())
	b = binenc.AppendString(b, tr.ModelName())
	payloadOff := len(b)
	if ca != nil {
		// The classifier preamble closes the meta section; the flat engine
		// is the payload section. Its raw sections are padded to 8-byte
		// offsets measured from the buffer start, i.e. from the magic —
		// which is why DecodeModel reads with a whole-file Reader rather
		// than slicing the magic off.
		b = binenc.AppendString(b, ca.extractor.Name())
		b = binenc.AppendU32(b, uint32(ca.width))
		b = binenc.AppendInts(b, ca.cols)
		b = binenc.AppendF64s(b, ca.importances)
		payloadOff = len(b)
		b = ca.engine.AppendBinary(b)
	}
	stampEnvelope(b, payloadOff)
	return b, nil
}

// DecodeModel reads an artifact serialized by EncodeModel. Corrupt input —
// wrong magic, truncation, out-of-range structure, trailing bytes, a
// failed section checksum — and any version other than ArtifactVersion
// yield errors, never panics: the untrusted decode path validates every
// structural invariant the unchecked flat kernels rely on.
//
// A classifier decoded from an aligned buffer aliases the buffer's node
// and payload sections instead of copying them (zero copy); the buffer
// must stay live and unmodified for the artifact's lifetime.
func DecodeModel(data []byte) (Trained, error) { return decodeModel(data, false) }

// decodeModel is DecodeModel with the trust level explicit. trusted skips
// the section checksums and the O(nodes) structural validation of the flat
// sections — used only by the load path after VerifyEnvelope has passed,
// which is what keeps mmap load time independent of model size.
func decodeModel(data []byte, trusted bool) (Trained, error) {
	if !trusted {
		// An untrusted decode enforces the section sums on top of the
		// structural scan: a value-level bit flip can preserve structure.
		// VerifyEnvelope also rejects bad magic and foreign versions.
		if _, err := VerifyEnvelope(data); err != nil {
			return nil, err
		}
	}
	// The Reader spans the whole file, magic included, so reader offsets
	// equal file offsets and the 8-byte section alignment the encoder
	// established survives into memory (file reads and mmap bases are
	// page- or allocation-aligned).
	r := binenc.NewReader(data)
	r.Skip(envHeaderSize) // magic, version and the integrity block
	kind := r.U8()
	target := Target(r.U8())
	meta := artifactMeta{
		h:      int(r.U32()),
		w:      int(r.U32()),
		cutoff: int(r.I32()),
		target: target,
		fp:     r.U64(),
	}
	meta.name = r.String()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if target != BeHot && target != BecomeHot {
		return nil, fmt.Errorf("forecast: artifact has unknown target %d", target)
	}
	if meta.h < 1 || meta.w < 1 {
		return nil, fmt.Errorf("forecast: artifact has invalid task h=%d w=%d", meta.h, meta.w)
	}
	if meta.fp == 0 {
		return nil, fmt.Errorf("forecast: artifact has no dataset fingerprint")
	}

	var tr Trained
	switch kind {
	case kindRandom, kindPersist, kindAverage, kindTrend, kindFallback:
		tr = &baselineArtifact{artifactMeta: meta, kind: kind}
	case kindTree, kindForest, kindGBT:
		a := &classifierArtifact{artifactMeta: meta, kind: kind}
		exName := r.String()
		a.width = int(r.U32())
		a.cols = r.Ints()
		a.importances = r.F64s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		ex, err := features.ByName(exName)
		if err != nil {
			return nil, err
		}
		a.extractor = ex
		if a.width < 1 {
			return nil, fmt.Errorf("forecast: artifact has invalid feature width %d", a.width)
		}
		if err := features.CheckCols(a.cols, a.width); err != nil {
			return nil, fmt.Errorf("forecast: artifact columns: %w", err)
		}
		a.colsKey = featcache.ColsKey(a.cols)
		if a.engine, err = mltree.DecodeFlat(r, trusted); err != nil {
			return nil, err
		}
		if want := kindPost[kind]; a.engine.Post() != want {
			return nil, fmt.Errorf("forecast: artifact kind %d carries an engine with post-step %d, want %d", kind, a.engine.Post(), want)
		}
		// Predict builds len(cols)-wide prediction rows and hands them to
		// the engine; a mismatch would panic there, so reject it at decode.
		if a.engine.NumFeatures != len(a.cols) {
			return nil, fmt.Errorf("forecast: artifact reads %d columns but its learner has %d features", len(a.cols), a.engine.NumFeatures)
		}
		tr = a
	default:
		return nil, fmt.Errorf("forecast: unknown artifact kind %d", kind)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return tr, nil
}

// SaveModel writes a trained artifact to path in the versioned binary
// format.
func SaveModel(path string, tr Trained) error {
	data, err := EncodeModel(tr)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// decodeVerified is the load path's decode policy: the envelope is
// verified in one streaming pass and then decoded trusted, so a corrupt
// file fails loudly before the unchecked flat kernels can run over it. The
// returned Sum is the whole-envelope checksum.
func decodeVerified(data []byte) (Trained, binenc.Sum, error) {
	sum, err := VerifyEnvelope(data)
	if err != nil {
		return nil, binenc.Sum{}, err
	}
	tr, err := decodeModel(data, true)
	return tr, sum, err
}

// LoadModelFile loads an artifact written by SaveModel, memory-mapping it
// where the platform supports that. A flat-payload classifier served from
// a mapping aliases the file's flat sections in place: nothing is copied
// and the model's pages fault in from the page cache (shared across
// processes mapping the same file). Trust is earned, not assumed: the
// envelope must pass its checksum gate (one streaming pass, far cheaper
// than the O(nodes) structural scan) before the sections are aliased. The
// mapping is held alive by the returned artifact and
// released by its finalizer.
func LoadModelFile(path string) (Trained, error) {
	tr, _, err := LoadModelFileSum(nil, path)
	return tr, err
}

// LoadModelFileFS is LoadModelFile through an injectable filesystem: the
// plain OS passthrough (or nil) takes the mmap fast path, while any other
// FS — the fault injector — is read through the interface into the heap,
// so injected corruption (torn writes, truncation, bit flips) flows
// through exactly the same checksum gate the mmap path runs.
func LoadModelFileFS(fsys faultfs.FS, path string) (Trained, error) {
	tr, _, err := LoadModelFileSum(fsys, path)
	return tr, err
}

// LoadModelFileSum is LoadModelFileFS plus the envelope's whole-file
// checksum, letting callers — the registry —
// cross-check a manifest-stamped sum without a second pass over the file.
func LoadModelFileSum(fsys faultfs.FS, path string) (Trained, binenc.Sum, error) {
	if !faultfs.IsOS(fsys) {
		data, err := fsys.ReadFile(path)
		if err != nil {
			return nil, binenc.Sum{}, err
		}
		tr, sum, err := decodeVerified(data)
		if err != nil {
			return nil, binenc.Sum{}, fmt.Errorf("forecast: %s: %w", path, err)
		}
		return tr, sum, nil
	}
	f, err := mmapfile.Open(path)
	if err != nil {
		return nil, binenc.Sum{}, err
	}
	tr, sum, err := decodeVerified(f.Data())
	if err != nil {
		f.Close()
		return nil, binenc.Sum{}, fmt.Errorf("forecast: %s: %w", path, err)
	}
	a, ok := tr.(*classifierArtifact)
	if !ok || !f.Mapped() {
		// Baselines copy everything they need out of the buffer at decode,
		// and a heap-read File has no mapping to manage — neither aliases
		// the buffer, so the mapping can go.
		f.Close()
		return tr, sum, nil
	}
	a.backing = f
	a.mmapBytes = int64(len(f.Data()))
	runtime.SetFinalizer(a, func(a *classifierArtifact) { a.backing.Close() })
	return tr, sum, nil
}

// Package featcache is the shared feature-matrix store behind the sweep
// engine and the serving path: a byte-budgeted LRU of immutable matrices
// with single-flight builds, so concurrent callers that need the same
// matrix build it exactly once and share the result. The Table III sweep
// evaluates every model over a (t, h, w) grid, and many grid points
// consume the identical training matrix — the Eq. 7 matrix at cutoff t-h
// is shared along the anti-diagonals of the (t, h) plane and by every
// model using the extractor — so sweep cost scales with the number of
// distinct (extractor, cutoff, w) builds, not with grid size. Fits fetch
// each build on demand; the first to ask builds it.
//
// Each such build is cached once, in the one form fits read: the
// quantization of the TrainDays stacked day blocks, extracted a stripe of
// columns at a time as it is binned (mltree.BinFill), so no float matrix
// of it is ever built. Adjacent cutoffs do not share day blocks; a day
// block is re-extracted for every cutoff that stacks it, which is cheap
// beside binning the stacked blocks.
//
// Prediction caches each (engine, day) window in the one form descent
// reads: the compiled engine's one-byte code tiles (Matrix.Codes, see
// mltree.Flat.Codes), holding only the columns the engine splits on,
// under a key naming that engine exactly (Key.Engine). No float matrix
// is kept for prediction.
//
// Feature extraction is deterministic per (sector, end, w), so serving a
// cached matrix is bit-identical to rebuilding it; the forecast package's
// determinism tests enforce cached == uncached end to end. The LRU and
// single-flight machinery is shared with the trained-model cache via
// internal/bytelru.
package featcache

import (
	"repro/internal/bytelru"
	"repro/internal/mltree"
)

// Key identifies one distinct matrix build: the extractor name, the
// exclusive end day of the feature window and the window length in days.
// Matrices always cover every sector, so the sector axis is not part of
// the key (subset builds bypass the cache). Stacked training matrices,
// always quantized, set Days: there End is the training cutoff t-h and
// Days the number of stacked label days, because the stacked matrix —
// unlike a per-day block — depends on both. An engine's code tiles set
// Engine.
type Key struct {
	// Extractor is the representation name (features.Extractor.Name).
	Extractor string
	// End is the exclusive end day of the feature window (the training
	// cutoff for stacked entries).
	End int
	// W is the window length in days.
	W int
	// Days is the number of stacked training label days, set on the
	// quantized training matrices (Matrix.Bin set, Data nil) and zero for
	// per-day blocks.
	Days int
	// Engine is the ID (mltree.Flat.ID) of the engine whose code tiles
	// the entry holds, zero for float and training entries. An ID names
	// one compiled or decoded engine for the life of the process, so two
	// engines reading the same columns at different cuts never share an
	// entry, and the key holds no pointer that would keep a replaced
	// engine alive.
	Engine uint64
}

// Matrix is an immutable feature-matrix handle: a row-major float matrix
// (Data), a quantized training matrix (Bin) or an engine's code tiles
// (Codes). Holders must not write through any of them: the same backing
// arrays are shared by every grid point (and every worker) that agrees
// on the Key.
type Matrix struct {
	Data  []float64 // len = Rows*Width (nil for training and code entries)
	Rows  int
	Width int
	// Codes are the code tiles of Rows rows (mltree.Flat.Codes) for the
	// engine Key.Engine names, one byte per code.
	Codes []uint8
	// Bin is the histogram-quantized form (internal/mltree.Binned), set on
	// training entries (Key.Days > 0) so every tree, boosting round and
	// model sharing one training build reuses a single quantization.
	Bin *mltree.Binned
}

// Bytes is the memory the matrix payload occupies.
func (m *Matrix) Bytes() int64 {
	total := int64(len(m.Data))*8 + int64(len(m.Codes))
	if m.Bin != nil {
		total += m.Bin.Bytes()
	}
	return total
}

// Stats is a point-in-time cache counter snapshot.
type Stats = bytelru.Stats

// Cache is a byte-budgeted LRU of feature matrices with single-flight
// builds: concurrent callers for the same key share one build, the first
// caller builds and the rest block for the same handle, build errors are
// not cached. All methods are safe for concurrent use.
type Cache struct {
	*bytelru.Cache[Key, *Matrix]
}

// New returns a cache bounded to maxBytes of matrix payload (<= 0 means
// unbounded).
func New(maxBytes int64) *Cache {
	return &Cache{bytelru.New[Key, *Matrix](maxBytes)}
}

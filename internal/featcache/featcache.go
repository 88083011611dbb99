// Package featcache is the shared feature-matrix store behind the sweep
// engine's plan-then-execute pipeline. The Table III sweep evaluates every
// model over a (t, h, w) grid, and many grid points consume the identical
// training matrix — the Eq. 7 matrix at cutoff t-h is shared along the
// anti-diagonals of the (t, h) plane and by every model using the
// extractor — so sweep cost should scale with the number of distinct
// (extractor, cutoff, w) builds, not with grid size.
//
// Each such build is cached once, in the form its fits read: the
// TrainDays stacked day blocks as one float slab for exact fits, or only
// their quantization for hist fits. Adjacent cutoffs do not share day
// blocks; a day block is re-extracted for every cutoff that stacks it,
// which is cheap beside binning the stacked slab.
//
// Two pieces deliver that:
//
//   - Cache: a byte-budgeted LRU of immutable matrices with single-flight
//     builds, so concurrent grid points that need the same matrix build it
//     exactly once and share the result.
//   - Plan (Compile/Warm): a compiler that turns a sweep grid into its set
//     of distinct builds, ordered by demand, and executes them once through
//     the shared worker pool before evaluation starts.
//
// Prediction reads per-day matrices: a fitted model's prediction matrix
// holds only the columns the model splits on, cached under a key that
// carries the exact column list (see Key.Cols). The sweep planner does
// not prewarm them, since each depends on a fit's outcome.
//
// Feature extraction is deterministic per (sector, end, w), so serving a
// cached matrix is bit-identical to rebuilding it; the forecast package's
// determinism tests enforce cached == uncached end to end. The LRU and
// single-flight machinery is shared with the trained-model cache via
// internal/bytelru.
package featcache

import (
	"encoding/binary"

	"repro/internal/bytelru"
	"repro/internal/mltree"
)

// Key identifies one distinct matrix build: the extractor name, the
// exclusive end day of the feature window and the window length in days.
// Matrices always cover every sector, so the sector axis is not part of
// the key (subset builds bypass the cache). Stacked training matrices set
// Days: there End is the training cutoff t-h and Days the number of
// stacked label days, because the stacked matrix — unlike a per-day
// block — depends on both; Binned marks the quantized form. Prediction
// matrices projected onto an artifact's columns set Cols.
type Key struct {
	// Extractor is the representation name (features.Extractor.Name).
	Extractor string
	// End is the exclusive end day of the feature window (the training
	// cutoff for stacked entries).
	End int
	// W is the window length in days.
	W int
	// Binned marks a quantized stacked training matrix (Matrix.Bin set,
	// Data nil).
	Binned bool
	// Days is the number of stacked training label days (zero for
	// per-day blocks).
	Days int
	// Cols is the exact column list of a projected matrix (ColsKey), empty
	// for one holding every column. It is the list itself, not a hash, so
	// two artifacts reading different columns can never share an entry.
	Cols string
}

// ColsKey encodes a column list as a Key.Cols value: four little-endian
// bytes per column.
func ColsKey(cols []int) string {
	b := make([]byte, 0, 4*len(cols))
	for _, c := range cols {
		b = binary.LittleEndian.AppendUint32(b, uint32(c))
	}
	return string(b)
}

// Matrix is an immutable feature-matrix handle: a row-major float matrix
// (Data), a quantized one (Bin), or both. Holders must not write through
// either: the same backing arrays are shared by every grid point (and
// every worker) that agrees on the Key.
type Matrix struct {
	Data  []float64 // len = Rows*Width (nil for binned-only entries)
	Rows  int
	Width int
	// Bin is the histogram-quantized form (internal/mltree.Binned), set on
	// Binned-keyed entries so every tree, boosting round and model sharing
	// one training build reuses a single quantization.
	Bin *mltree.Binned
}

// Bytes is the memory the matrix payload occupies.
func (m *Matrix) Bytes() int64 {
	total := int64(len(m.Data)) * 8
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

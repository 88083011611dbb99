package mltree

import (
	"math"
	"sync"

	"repro/internal/bytelru"
)

// This file is the shared quantization layer under the float-matrix fit
// entry points (FitTree, FitForest, FitGBT, FitRegressionTree): callers
// that pass float matrices — ablation benches, direct library users,
// anything below the forecast layer's cutoff-keyed cache — were paying a
// full re-quantization per fit even when handing over the identical
// matrix. The cache keys on a content fingerprint of the matrix and
// weights (quantile cuts depend on both), so refits on the same training
// data reuse one Binned while any mutation changes the fingerprint and
// misses. Binned values are immutable after Bin, which is what makes the
// sharing sound; binning is deterministic, so a cached quantization is
// bit-identical to a fresh one.

// DefaultBinCacheBytes is the shared quantization cache budget used when
// SetBinCacheBytes was never called: 64 MiB.
const DefaultBinCacheBytes int64 = 64 << 20

// Stats is a point-in-time quantization-cache counter snapshot.
type Stats = bytelru.Stats

// binKey identifies one quantization input: the shapes, the normalized bin
// budget, and a 128-bit content fingerprint (two independent 64-bit hashes
// over the matrix and weight payloads — a single 64-bit hash would make
// silent cross-fit collisions plausible at cache scale).
type binKey struct {
	n, f, maxBins int
	weighted      bool
	h1, h2        uint64
}

var (
	binCacheMu    sync.Mutex
	binCacheLRU   *bytelru.Cache[binKey, *Binned]
	binCacheLimit int64
)

// binCache returns the process-wide quantization cache, creating it on
// first use; nil when disabled via SetBinCacheBytes(-1).
func binCache() *bytelru.Cache[binKey, *Binned] {
	binCacheMu.Lock()
	defer binCacheMu.Unlock()
	if binCacheLimit < 0 {
		return nil
	}
	limit := binCacheLimit
	if limit == 0 {
		limit = DefaultBinCacheBytes
	}
	if binCacheLRU == nil {
		binCacheLRU = bytelru.New[binKey, *Binned](limit)
	}
	return binCacheLRU
}

// SetBinCacheBytes rebounds the shared quantization cache: 0 restores
// DefaultBinCacheBytes, a negative value disables caching entirely
// (float-matrix fits then re-bin per call, the pre-cache behavior the perf
// benches measure). The cache is replaced with a freshly budgeted empty one;
// reconfigure only between fits, never while fits are running.
func SetBinCacheBytes(maxBytes int64) {
	binCacheMu.Lock()
	defer binCacheMu.Unlock()
	binCacheLimit = maxBytes
	binCacheLRU = nil
}

// BinCacheStats returns a point-in-time counter snapshot of the shared
// quantization cache (zero when disabled or never used).
func BinCacheStats() bytelru.Stats {
	c := binCache()
	if c == nil {
		return bytelru.Stats{}
	}
	return c.Stats()
}

// FNV-1a and FNV-1 constants; running both gives the two independent
// streams of the 128-bit fingerprint.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// binFingerprint hashes the quantization inputs. Weights participate
// because weighted quantile cuts move with them; nil weights hash as an
// empty stream, distinct from any explicit weighting via binKey.weighted.
func binFingerprint(x, w []float64) (uint64, uint64) {
	h1, h2 := hashFloats(fnvOffset64, fnvOffset64, x)
	// Separate the two payloads so (x..a, w=b..) never aliases (x.., w=ab..).
	h1, h2 = hashWord(h1, h2, uint64(len(x)))
	return hashFloats(h1, h2, w)
}

// hashFloats folds a float slice into both running hashes: h1 is FNV-1a
// (xor, then multiply), h2 is FNV-1 (multiply, then xor), byte-for-byte
// over each value's IEEE bits.
func hashFloats(h1, h2 uint64, vals []float64) (uint64, uint64) {
	for _, v := range vals {
		h1, h2 = hashWord(h1, h2, math.Float64bits(v))
	}
	return h1, h2
}

func hashWord(h1, h2, bits uint64) (uint64, uint64) {
	for s := 0; s < 64; s += 8 {
		b := (bits >> s) & 0xff
		h1 = (h1 ^ b) * fnvPrime64
		h2 = h2*fnvPrime64 ^ b
	}
	return h1, h2
}

// binShared is the caching front of BinWorkers for the float-matrix fit
// paths. The worker count is not part of the key — BinWorkers is
// bit-identical at any worker count by contract.
func binShared(x []float64, n, f int, w []float64, maxBins, workers int) (*Binned, error) {
	cache := binCache()
	if cache == nil {
		return BinWorkers(x, n, f, w, maxBins, workers)
	}
	if maxBins <= 0 {
		maxBins = DefaultMaxBins
	}
	if maxBins > 256 {
		maxBins = 256
	}
	h1, h2 := binFingerprint(x, w)
	key := binKey{n: n, f: f, maxBins: maxBins, weighted: w != nil, h1: h1, h2: h2}
	return cache.GetOrBuild(key, func() (*Binned, error) {
		return BinWorkers(x, n, f, w, maxBins, workers)
	})
}

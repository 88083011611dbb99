package mltree

import (
	"repro/internal/bytelru"
	"repro/internal/obs"
)

// Kernel-stage histograms on the process registry. The flat engine
// observes once per ScoreBatch call, not per block: durations
// accumulate in locals inside the block loop, so the hot loop's only
// instrumentation cost is the time.Now() reads and the two atomic
// observes at the end — no allocation, no map, no fmt.
var (
	quantizeSeconds = obs.Default().Histogram("mltree_quantize_seconds",
		"time spent quantizing feature rows to codes, per flat batch call",
		obs.MicroLatencyBuckets)
	descendSeconds = obs.Default().Histogram("mltree_descend_seconds",
		"time spent descending trees over quantized codes, per flat batch call",
		obs.MicroLatencyBuckets)
)

// The shared quantization cache exports as bytelru_*{cache="bins"}.
// BinCacheStats already tolerates the cache being disabled or rebuilt, so
// one registration at init covers every configuration.
func init() {
	bytelru.RegisterMetrics(obs.Default(), "bins", BinCacheStats)
}

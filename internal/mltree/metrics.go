package mltree

import "repro/internal/obs"

// Kernel-stage histograms on the process registry. The flat engine
// observes once per Codes or ScoreCodes call, not per block:
// durations accumulate in locals inside the block loop, so the hot
// loop's only instrumentation cost is the time.Now() reads and the
// atomic observes at the end — no allocation, no map, no fmt.
var (
	quantizeSeconds = obs.Default().Histogram("mltree_quantize_seconds",
		"time spent quantizing feature rows to codes, per Codes call",
		obs.MicroLatencyBuckets)
	descendSeconds = obs.Default().Histogram("mltree_descend_seconds",
		"time spent descending trees over quantized codes, per ScoreCodes call",
		obs.MicroLatencyBuckets)
)

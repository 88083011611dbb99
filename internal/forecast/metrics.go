package forecast

import "repro/internal/obs"

// Stage series for the prediction path, on the process registry. Predict
// decomposes into the two stages an operator can act on independently: the
// feature fetch (cache-hit dependent — pair with bytelru_*{cache=
// "features"} to see whether slow fetches are misses) and the batch
// descent through the compiled engine. Observations are one atomic op each
// against pre-registered series, keeping Predict allocation-free beyond
// its own output buffer.
var (
	batchPredictsTotal = obs.Default().Counter("forecast_batch_predicts_total",
		"flat-engine batch evaluations served")
	featureFetchSeconds = obs.Default().Histogram("forecast_feature_fetch_seconds",
		"time to build or fetch the all-sector code tiles, per Predict",
		obs.MicroLatencyBuckets)
	predictDescendSeconds = obs.Default().Histogram("forecast_descend_seconds",
		"time to score the sector block through the engine, per Predict",
		obs.MicroLatencyBuckets)
)

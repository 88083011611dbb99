package bytelru

import "repro/internal/obs"

// RegisterMetrics exports a cache's counters into reg as func-backed
// series labeled {cache=name}: bytelru_hits_total, bytelru_misses_total,
// bytelru_evictions_total, bytelru_oversize_total, bytelru_waits_total
// (single-flight joins), bytelru_entries, bytelru_bytes and
// bytelru_max_bytes. stats is called at scrape time, so the series always
// reflect the live cache even if the cache itself is rebuilt — callers
// whose cache can be re-created (forecast.Context does this lazily) just
// re-register with the new stats closure and the latest registration wins.
//
// The registry keeps stats for the life of the process, so stats must not
// reference the cache's entries: pass the cache's Meter().Stats, never
// the cache's own Stats method, or a replaced cache stays reachable, its
// entries with it.
//
// The serving path pays nothing for this: the counters already exist
// inside the cache, and func collectors only run when /metrics is scraped.
func RegisterMetrics(reg *obs.Registry, name string, stats func() Stats) {
	l := obs.Label{Key: "cache", Value: name}
	reg.CounterFunc("bytelru_hits_total",
		"cache lookups served from a resident entry", func() uint64 { return stats().Hits }, l)
	reg.CounterFunc("bytelru_misses_total",
		"cache lookups that triggered a build", func() uint64 { return stats().Misses }, l)
	reg.CounterFunc("bytelru_evictions_total",
		"entries evicted to satisfy the byte budget", func() uint64 { return stats().Evictions }, l)
	reg.CounterFunc("bytelru_oversize_total",
		"built values too large to cache at all", func() uint64 { return stats().Oversize }, l)
	reg.CounterFunc("bytelru_waits_total",
		"callers that joined an in-flight single-flight build", func() uint64 { return stats().Waits }, l)
	reg.GaugeFunc("bytelru_entries",
		"resident cache entries", func() float64 { return float64(stats().Entries) }, l)
	reg.GaugeFunc("bytelru_bytes",
		"resident cache payload bytes", func() float64 { return float64(stats().Bytes) }, l)
	reg.GaugeFunc("bytelru_max_bytes",
		"configured cache byte budget (0 = unbounded)", func() float64 { return float64(stats().MaxBytes) }, l)
}

// Package obs is the shared observability core: allocation-free metric
// primitives (atomic counters, gauges and fixed-bucket latency histograms
// with quantile extraction), a registry that renders the Prometheus text
// exposition format, and a lightweight per-request stage span. Every layer
// of the serving and training stack — the inference kernels, the caches,
// the model registry, the worker pools and the HTTP servers — records into
// series registered here, and cmd/hotserve's GET /metrics (plus the
// training CLIs' -metrics dump) renders the one shared picture.
//
// The package is deliberately dependency-free (standard library only) and
// sits at the very bottom of the dependency order, below even mltree, so
// any package may instrument itself.
//
// Hot-path contract: instrumentation on the descent/serve hot paths must
// be allocation-free. Counter.Add, Gauge.Set and Histogram.Observe are
// single atomic operations (Observe adds one bounded CAS loop for the sum)
// against pre-registered series — no maps, no fmt, no interface boxing.
// Register series once, at package or server init, and hold the returned
// pointer; never look a series up per request.
package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready
// to use, but series meant for /metrics must come from Registry.Counter so
// they render.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer gauge (a value that can go up and down).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat accumulates a float64 with compare-and-swap — the histogram
// sum. Loses no updates under concurrency; ordering is irrelevant because
// addition commutes (up to float rounding).
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }
func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }

// Histogram is a fixed-bucket histogram: len(bounds)+1 atomic bucket
// counters (the last is the overflow bucket) plus a count and a sum.
// Observe is allocation-free and safe for concurrent use; bucket bounds
// are immutable after construction.
type Histogram struct {
	bounds []float64 // ascending upper (inclusive) bucket bounds
	counts []atomic.Uint64
	sum    atomicFloat
}

// NewHistogram returns a histogram over the given ascending upper bucket
// bounds (values above the last bound land in an implicit overflow
// bucket). Panics on empty or non-ascending bounds — bucket layout is a
// programming decision, not input.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records v: one atomic add on the owning bucket plus the CAS sum
// update. NaN observations are dropped (a NaN would poison the sum and fit
// no bucket).
func (h *Histogram) Observe(v float64) {
	if v != v { // NaN
		return
	}
	// Binary search for the first bound >= v (upper-inclusive buckets, the
	// Prometheus `le` convention); misses every bound -> overflow bucket.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.sum.add(v)
}

// ObserveDuration records d in seconds — the unit every *_seconds series
// uses.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Snapshot captures the histogram's current state. Concurrent Observes
// may straddle the capture (a bucket read before its sibling), so a
// snapshot is per-bucket consistent, not globally; Count is derived from
// the captured buckets so a snapshot is always internally coherent.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.sum.load(),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Reset zeroes every bucket and the sum. Best-effort under concurrency:
// an Observe racing the reset lands wholly before or wholly after per
// field. Meant for tools that reuse a process between measured phases,
// not for the serving path.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.store(0)
}

// HistSnapshot is a point-in-time histogram capture: per-bucket (non-
// cumulative) counts, one per bound plus the trailing overflow bucket.
// Snapshots from histograms (or scrapes) with identical bounds can be
// subtracted, which is how hotperf isolates one load phase from a
// server's lifetime totals.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Count  uint64
	Sum    float64
}

// boundsEqual reports whether two bound slices are identical.
func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Sub returns this snapshot minus an earlier one of the same histogram —
// the observations that landed between the two captures. Panics on
// mismatched bounds; buckets where prev exceeds s (a reset in between)
// clamp to zero.
func (s HistSnapshot) Sub(prev HistSnapshot) HistSnapshot {
	if !boundsEqual(s.Bounds, prev.Bounds) {
		panic("obs: subtracting histogram snapshots with different bucket bounds")
	}
	out := HistSnapshot{Bounds: s.Bounds, Counts: make([]uint64, len(s.Counts))}
	for i := range s.Counts {
		if s.Counts[i] > prev.Counts[i] {
			out.Counts[i] = s.Counts[i] - prev.Counts[i]
		}
		out.Count += out.Counts[i]
	}
	if s.Sum > prev.Sum {
		out.Sum = s.Sum - prev.Sum
	}
	return out
}

// LatencyBuckets is the default request-level bucket layout: 100µs to 10s,
// roughly 2.5x per step. Suits end-to-end HTTP and stage latencies.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// MicroLatencyBuckets is the kernel-level layout: 1µs to 250ms, for stages
// (quantize, descend, cache fetch) that finish well under a millisecond.
var MicroLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
	0.01, 0.025, 0.05, 0.1, 0.25,
}

// MaxSpanStages bounds the per-request span's stage vector. Eight covers
// every pipeline in the repo with room to grow; a fixed array keeps the
// span a stack value with no per-request allocation.
const MaxSpanStages = 8

// Span is a lightweight per-request stage timer: Mark(stage) charges the
// time since the previous mark to that stage, so a handler interleaving
// stages (admission wait, artifact lookup, predict, rank, encode) ends up
// with an additive decomposition of its total latency. A Span is a plain
// value — declare it as a local, no pool, no allocation — and is not safe
// for concurrent use (one request, one goroutine, one span).
type Span struct {
	begin time.Time
	mark  time.Time
	dur   [MaxSpanStages]time.Duration
}

// StartSpan begins a span at now.
func StartSpan() Span {
	now := time.Now()
	return Span{begin: now, mark: now}
}

// Mark charges the time since the previous mark (or the start) to stage
// and advances the mark. Stages may repeat; durations accumulate.
func (s *Span) Mark(stage int) {
	now := time.Now()
	s.dur[stage] += now.Sub(s.mark)
	s.mark = now
}

// Stage returns the accumulated duration of one stage.
func (s *Span) Stage(stage int) time.Duration { return s.dur[stage] }

// Total returns the time since the span started.
func (s *Span) Total() time.Duration { return time.Since(s.begin) }

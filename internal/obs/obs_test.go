package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

// Observations exactly on a bound land in that bound's bucket (le is
// upper-inclusive), just past it in the next, and past the last bound in
// the overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.0, 3.9, 4.0, 4.0001, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 2} // (..1], (1..2], (2..4], (4..inf)
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 8 {
		t.Fatalf("count = %d, want 8", s.Count)
	}
	wantSum := 0.5 + 1 + 1.0001 + 2 + 3.9 + 4 + 4.0001 + 100
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestHistogramDropsNaN(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(math.NaN())
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("NaN observation recorded: %+v", s)
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(i%100) * 1e-4)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var bsum uint64
	for _, c := range s.Counts {
		bsum += c
	}
	if bsum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bsum, s.Count)
	}
}

func TestSnapshotMergeSubReset(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	a := h.Snapshot()
	h.Observe(1.7)
	h.Observe(3)
	b := h.Snapshot()

	delta := b.Sub(a)
	if delta.Count != 2 || delta.Counts[1] != 1 || delta.Counts[2] != 1 {
		t.Fatalf("sub delta wrong: %+v", delta)
	}
	if math.Abs(delta.Sum-4.7) > 1e-9 {
		t.Fatalf("sub sum = %v, want 4.7", delta.Sum)
	}

	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("reset left state: %+v", s)
	}
	// Sub across a reset clamps instead of underflowing.
	h.Observe(0.5)
	d2 := h.Snapshot().Sub(b)
	if d2.Counts[0] != 0 || d2.Count != 0 {
		t.Fatalf("sub across reset should clamp: %+v", d2)
	}

	other := NewHistogram([]float64{1, 3}).Snapshot()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("sub with mismatched bounds did not panic")
			}
		}()
		a.Sub(other)
	}()
}

func TestSpanStages(t *testing.T) {
	sp := StartSpan()
	time.Sleep(2 * time.Millisecond)
	sp.Mark(0)
	time.Sleep(2 * time.Millisecond)
	sp.Mark(1)
	sp.Mark(1) // repeat accumulates ~0 extra
	if sp.Stage(0) <= 0 || sp.Stage(1) <= 0 {
		t.Fatalf("stages not recorded: %v %v", sp.Stage(0), sp.Stage(1))
	}
}

// The hot-path contract: recording into pre-registered series allocates
// nothing.
func TestRecordPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("zeroalloc_total", "")
	g := r.Gauge("zeroalloc_gauge", "")
	h := r.Histogram("zeroalloc_seconds", "", LatencyBuckets)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.Observe(0.002)
		sp := StartSpan()
		sp.Mark(0)
		h.ObserveDuration(sp.Stage(0))
	})
	if allocs != 0 {
		t.Fatalf("record path allocates %v per op, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(LatencyBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}

package bytelru

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

type sizedInt int64

func (s sizedInt) Bytes() int64 { return int64(s) }

// A second caller arriving during a build joins it and is counted as a
// single-flight wait, not a hit or a miss.
func TestStatsCountsSingleFlightWaits(t *testing.T) {
	c := New[string, sizedInt](1 << 20)
	entered := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.GetOrBuild("k", func() (sizedInt, error) {
			close(entered)
			<-release
			return 8, nil
		})
	}()
	<-entered
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := c.GetOrBuild("k", func() (sizedInt, error) {
			t.Error("joined caller must not build")
			return 0, nil
		})
		if err != nil || v != 8 {
			t.Errorf("joined caller got (%v, %v)", v, err)
		}
	}()
	// Wait until the joiner is registered as waiting, then let the build go.
	for c.Stats().Waits != 1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	s := c.Stats()
	if s.Hits != 0 || s.Misses != 1 || s.Waits != 1 {
		t.Fatalf("stats = %+v, want 0 hits / 1 miss / 1 wait", s)
	}
}

func TestRegisterMetricsRendersLiveStats(t *testing.T) {
	c := New[string, sizedInt](100)
	reg := obs.NewRegistry()
	RegisterMetrics(reg, "widgets", c.Meter().Stats)
	c.GetOrBuild("a", func() (sizedInt, error) { return 10, nil })
	c.GetOrBuild("a", func() (sizedInt, error) { return 10, nil })

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`bytelru_hits_total{cache="widgets"} 1`,
		`bytelru_misses_total{cache="widgets"} 1`,
		`bytelru_entries{cache="widgets"} 1`,
		`bytelru_bytes{cache="widgets"} 10`,
		`bytelru_max_bytes{cache="widgets"} 100`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	// Re-registering with a new cache's stats swaps the source (latest
	// wins) — the pattern lazily re-created caches rely on.
	c2 := New[string, sizedInt](100)
	RegisterMetrics(reg, "widgets", c2.Meter().Stats)
	sb.Reset()
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `bytelru_hits_total{cache="widgets"} 0`) {
		t.Fatalf("re-registration did not rebind stats source:\n%s", sb.String())
	}
}

// scrape renders reg and parses it back, failing the test on error.
func scrape(t *testing.T, reg *obs.Registry) obs.Scrape {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ParseText(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// The scraped series equal Stats() field for field after every kind of
// counted event: hits, misses, single-flight waits, evictions and
// oversize values.
func TestScrapedSeriesEqualStats(t *testing.T) {
	c := New[string, sizedInt](100)
	reg := obs.NewRegistry()
	RegisterMetrics(reg, "widgets", c.Meter().Stats)
	build := func(v sizedInt) func() (sizedInt, error) {
		return func() (sizedInt, error) { return v, nil }
	}
	c.GetOrBuild("a", build(40))
	c.GetOrBuild("a", build(40)) // hit
	c.GetOrBuild("b", build(40))
	c.GetOrBuild("c", build(40))  // evicts a
	c.GetOrBuild("d", build(500)) // oversize
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		c.GetOrBuild("e", func() (sizedInt, error) {
			close(entered)
			<-release
			return 30, nil // evicts b
		})
		close(done)
	}()
	<-entered
	joined := make(chan struct{})
	go func() {
		c.GetOrBuild("e", build(30)) // joins the in-flight build
		close(joined)
	}()
	for c.Stats().Waits != 1 {
		runtime.Gosched()
	}
	close(release)
	<-done
	<-joined

	s := c.Stats()
	if s.Hits != 1 || s.Misses != 5 || s.Waits != 1 || s.Evictions != 2 || s.Oversize != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 5 misses, 1 wait, 2 evictions, 1 oversize", s)
	}
	got := scrape(t, reg)
	l := obs.Label{Key: "cache", Value: "widgets"}
	for name, want := range map[string]float64{
		"bytelru_hits_total":      float64(s.Hits),
		"bytelru_misses_total":    float64(s.Misses),
		"bytelru_evictions_total": float64(s.Evictions),
		"bytelru_oversize_total":  float64(s.Oversize),
		"bytelru_waits_total":     float64(s.Waits),
		"bytelru_entries":         float64(s.Entries),
		"bytelru_bytes":           float64(s.Bytes),
		"bytelru_max_bytes":       float64(s.MaxBytes),
	} {
		if v, ok := got[obs.SeriesName(name, l)]; !ok || v != want {
			t.Errorf("%s = %v (present %t), Stats() says %v", name, v, ok, want)
		}
	}
}

// tracked is a cached value whose collection can be observed.
type tracked struct{ buf []byte }

func (t *tracked) Bytes() int64 { return int64(len(t.buf)) }

// A cache registered with RegisterMetrics and then dropped is collectable:
// the metrics keep only its counter block, not its entries.
func TestRegisteredCacheIsCollectable(t *testing.T) {
	reg := obs.NewRegistry()
	freed := make(chan struct{})
	func() {
		c := New[string, *tracked](1 << 20)
		RegisterMetrics(reg, "dropped", c.Meter().Stats)
		v, _ := c.GetOrBuild("k", func() (*tracked, error) {
			return &tracked{buf: make([]byte, 1024)}, nil
		})
		runtime.SetFinalizer(v, func(*tracked) { close(freed) })
	}()
	waitFreed(t, freed, "a dropped cache's entry")
	// The series still render the dropped cache's last counters.
	if got := scrape(t, reg)[obs.SeriesName("bytelru_entries", obs.Label{Key: "cache", Value: "dropped"})]; got != 1 {
		t.Fatalf("bytelru_entries = %v after the cache was dropped, want its last value 1", got)
	}
}

// waitFreed collects garbage until freed closes, failing after a bounded
// wait. Finalizers run on their own goroutine after the cycle that found
// the object unreachable, so one GC is not always enough.
func waitFreed(t *testing.T, freed <-chan struct{}, what string) {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline:
			t.Fatalf("%s was never collected: something still references it", what)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

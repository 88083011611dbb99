//go:build !race

// The race detector randomly drops sync.Pool entries, so allocation
// counts are only meaningful without it.

package main

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/forecast"
)

// discardWriter is a reusable ResponseWriter that keeps only the status,
// so a measurement counts the handler's allocations, not a recorder's.
type discardWriter struct {
	header http.Header
	status int
}

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }

// bytesPerGET is the mean heap bytes one GET of url allocates in
// ServeHTTP, after a warm-up GET has filled the feature cache and the
// rank buffer pool.
func bytesPerGET(t *testing.T, srv *server, url string) float64 {
	t.Helper()
	const runs = 200
	req := httptest.NewRequest("GET", url, nil)
	w := &discardWriter{header: http.Header{}}
	serve := func() {
		w.status = 0
		srv.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("%s = %d", url, w.status)
		}
	}
	serve()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestForecastAllocatesPerQueryNotPerSector: a GET /forecast allocates
// O(k) — the ranking it returns, the parsed query and the encoder — and
// nothing per sector, for every artifact kind. Scores and the top-k
// selection come from pooled buffers, so doubling the network leaves the
// bytes per GET unchanged.
func TestForecastAllocatesPerQueryNotPerSector(t *testing.T) {
	// A collection during the measured runs empties the rank buffer pool,
	// and refilling it would count against a GET. Hold collection off; each
	// measurement's warm-up GET fills the pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const maxBytes = 2048
	kinds := []core.ModelKind{core.Random, core.Persist, core.Average, core.Trend,
		core.Tree, core.RFF1, core.GBTF1}
	perGET := map[core.ModelKind][2]float64{}
	for si, sectors := range []int{150, 300} {
		p, err := core.NewPipeline(core.Config{Seed: 2, Sectors: sectors, Weeks: 8, TrainDays: 3, ForestTrees: 4})
		if err != nil {
			t.Fatal(err)
		}
		var arts []forecast.Trained
		for _, kind := range kinds {
			tr, err := p.Train(kind, forecast.BeHot, 30, 3, 7)
			if err != nil {
				t.Fatal(err)
			}
			arts = append(arts, tr)
		}
		srv := newServer(p, 4)
		if err := srv.setStatic(arts); err != nil {
			t.Fatal(err)
		}
		for _, kind := range kinds {
			b := bytesPerGET(t, srv, "/forecast?model="+string(kind)+"&t=35&k=10")
			if b > maxBytes {
				t.Errorf("%s, %d sectors: %.0f bytes per GET, want <= %d", kind, sectors, b, maxBytes)
			}
			v := perGET[kind]
			v[si] = b
			perGET[kind] = v
		}
	}
	// One O(sectors) slice of 150 more sectors costs at least 150 bytes.
	for kind, b := range perGET {
		if grow := b[1] - b[0]; grow >= 150 {
			t.Errorf("%s: bytes per GET grow with the sector count: %.0f at 150 sectors, %.0f at 300",
				kind, b[0], b[1])
		}
	}
	t.Logf("bytes per GET at 150/300 sectors: %v", perGET)
}

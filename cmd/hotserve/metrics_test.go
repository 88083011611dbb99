package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/obs"
	"repro/internal/registry"
)

// scrape fetches and parses GET /metrics.
func scrape(t testing.TB, srv *server) obs.Scrape {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	sc, err := obs.ParseText(rec.Body.String())
	if err != nil {
		t.Fatalf("/metrics did not parse: %v", err)
	}
	return sc
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t, 8)
	route := obs.Label{Key: "route", Value: "/forecast"}

	before := scrape(t, srv)
	if code, _ := get(t, srv, "/forecast?model=Average&t=30&k=5"); code != 200 {
		t.Fatalf("forecast status %d", code)
	}
	if code, _ := get(t, srv, "/forecast?model=NoSuchModel"); code != 404 {
		t.Fatalf("miss status %d", code)
	}
	after := scrape(t, srv)

	if got := after.Counter("hotserve_requests_total", route) - before.Counter("hotserve_requests_total", route); got != 2 {
		t.Errorf("request counter delta = %d, want 2", got)
	}
	if got := after.Counter("hotserve_forecasts_total") - before.Counter("hotserve_forecasts_total"); got != 1 {
		t.Errorf("forecast counter delta = %d, want 1", got)
	}
	if got := after.Counter("hotserve_errors_total", route) - before.Counter("hotserve_errors_total", route); got != 1 {
		t.Errorf("error counter delta = %d, want 1", got)
	}

	// The end-to-end histogram recorded both admitted requests, the 404
	// too; the stage histograms recorded the successful one.
	lat, ok := after.Histogram("hotserve_request_seconds", route)
	if prev, _ := before.Histogram("hotserve_request_seconds", route); !ok || lat.Count-prev.Count != 2 {
		t.Errorf("request latency histogram gained %d observations (present=%v), want 2", lat.Count-prev.Count, ok)
	}
	for _, stage := range []string{"admission", "lookup", "predict", "rank", "encode"} {
		h, ok := after.Histogram("hotserve_stage_seconds", obs.Label{Key: "stage", Value: stage})
		if !ok || h.Count == 0 {
			t.Errorf("stage %q histogram empty (present=%v)", stage, ok)
		}
	}

	// Inventory gauges reflect the active set (two artifacts, one flat).
	if v, ok := after.Value("hotserve_models"); !ok || v != 2 {
		t.Errorf("hotserve_models = %v (%v), want 2", v, ok)
	}
	if v, ok := after.Value("hotserve_flattened_models"); !ok || v != 1 {
		t.Errorf("hotserve_flattened_models = %v (%v), want 1", v, ok)
	}

	// Library-layer series ride the same scrape.
	if _, ok := after.Value("bytelru_hits_total", obs.Label{Key: "cache", Value: "features"}); !ok {
		t.Error("feature-cache series missing from scrape")
	}

	// An Average forecast never batch-predicts; a Tree forecast does, so
	// the test drives one itself rather than relying on an earlier test.
	if code, _ := get(t, srv, "/forecast?model=Tree&t=30&k=5"); code != 200 {
		t.Fatalf("tree forecast status %d", code)
	}
	if tree := scrape(t, srv); tree.Counter("forecast_batch_predicts_total") <= after.Counter("forecast_batch_predicts_total") {
		t.Error("forecast_batch_predicts_total did not advance across a Tree forecast")
	}
}

// TestBatchErrorsCountFailedQueries: hotserve_errors_total counts failed
// queries, not error responses, so a 200 batch with two bad queries of
// three moves it by two.
func TestBatchErrorsCountFailedQueries(t *testing.T) {
	srv, _ := testServer(t, 8)
	route := obs.Label{Key: "route", Value: "/forecast/batch"}
	before := scrape(t, srv)
	code, body := post(t, srv, "/forecast/batch",
		`{"queries":[{"model":"Tree","t":30},{"model":"Nope"},{"model":"Tree","k":0}]}`)
	if code != 200 {
		t.Fatalf("batch = %d %v", code, body)
	}
	after := scrape(t, srv)
	for _, c := range []struct {
		name   string
		labels []obs.Label
		want   int64
	}{
		{"hotserve_requests_total", []obs.Label{route}, 1},
		{"hotserve_errors_total", []obs.Label{route}, 2},
		{"hotserve_forecasts_total", nil, 1},
	} {
		if got := int64(after.Counter(c.name, c.labels...)) - int64(before.Counter(c.name, c.labels...)); got != c.want {
			t.Errorf("%s moved by %d, want %d", c.name, got, c.want)
		}
	}
}

// TestArtifactInfoLabels: hotserve_artifact_info has one sample per
// served artifact, labeled with its task alone: every classifier descends
// on the same engine, so no label names a kernel.
func TestArtifactInfoLabels(t *testing.T) {
	srv, _ := testServer(t, 8)
	sc := scrape(t, srv)
	task := []obs.Label{{Key: "target", Value: forecast.BeHot.String()},
		{Key: "h", Value: "3"}, {Key: "w", Value: "7"}}
	for _, model := range []string{"Average", "Tree"} {
		labels := append([]obs.Label{{Key: "model", Value: model}}, task...)
		if v, ok := sc.Value("hotserve_artifact_info", labels...); !ok || v != 1 {
			t.Errorf("%s artifact_info sample = %v (present=%v), want 1", model, v, ok)
		}
	}
	samples := 0
	for key := range sc {
		if strings.HasPrefix(key, "hotserve_artifact_info{") {
			samples++
			if strings.Contains(key, "descent=") {
				t.Errorf("artifact_info names a descent kernel: %s", key)
			}
		}
	}
	if samples != 2 {
		t.Errorf("artifact_info has %d samples, want one per served artifact (2)", samples)
	}
}

// TestArtifactFeaturesRead: hotserve_artifact_features_read carries one
// sample per classifier artifact, equal to its /healthz features_read;
// baselines, which build no feature matrix, have no sample.
func TestArtifactFeaturesRead(t *testing.T) {
	srv, _ := testServer(t, 8)
	sc := scrape(t, srv)
	_, body := get(t, srv, "/healthz")
	tree := body["models"].([]any)[1].(map[string]any)
	want := tree["features_read"].(float64)
	if want < 1 || want >= tree["width"].(float64) {
		t.Fatalf("Tree reads %v of %v columns, want a strict subset", want, tree["width"])
	}
	labels := []obs.Label{{Key: "model", Value: "Tree"}, {Key: "target", Value: forecast.BeHot.String()},
		{Key: "h", Value: "3"}, {Key: "w", Value: "7"}}
	if v, ok := sc.Value("hotserve_artifact_features_read", labels...); !ok || v != want {
		t.Errorf("Tree features_read sample = %v (present=%v), want %v", v, ok, want)
	}
	for key := range sc {
		if strings.HasPrefix(key, "hotserve_artifact_features_read{") && strings.Contains(key, `model="Average"`) {
			t.Errorf("baseline has a features_read sample: %s", key)
		}
	}
}

// Two servers in one process must not share request counters — the
// server-scoped registry exists exactly for this.
func TestMetricsScopedPerServer(t *testing.T) {
	a, _ := testServer(t, 8)
	b, _ := testServer(t, 8)
	route := obs.Label{Key: "route", Value: "/forecast"}
	beforeB := scrape(t, b).Counter("hotserve_requests_total", route)
	get(t, a, "/forecast?model=Average&t=30&k=5")
	if got := scrape(t, b).Counter("hotserve_requests_total", route); got != beforeB {
		t.Fatalf("server B saw server A's requests: %d -> %d", beforeB, got)
	}
}

func TestHealthzReadsObsCounters(t *testing.T) {
	srv, p, pub := registryServer(t)
	tr2, err := p.Train(core.Average, forecast.BeHot, 31, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(tr2); err != nil {
		t.Fatal(err)
	}
	if code, body := post(t, srv, "/reload", ""); code != 200 || body["reloaded"] != true {
		t.Fatalf("reload: %d %v", code, body)
	}
	_, body := get(t, srv, "/healthz")
	if got := body["reloads"]; got != float64(1) {
		t.Fatalf("healthz reloads = %v, want 1", got)
	}
	if got := scrape(t, srv).Counter("hotserve_reloads_total"); got != 1 {
		t.Fatalf("hotserve_reloads_total = %d, want 1", got)
	}
}

func TestShedCountedAndLogged(t *testing.T) {
	srv, _ := testServer(t, 1)
	var buf bytes.Buffer
	srv.accessLog = true
	srv.accessOut = &buf

	release := make(chan struct{})
	entered := make(chan struct{})
	srv.testHookForecast = func() {
		close(entered)
		<-release
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/forecast?model=Average&t=30&k=5", nil))
	}()
	<-entered
	srv.testHookForecast = nil

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/forecast?model=Average&t=30&k=5", nil))
	if rec.Code != 503 {
		t.Fatalf("expected shed 503, got %d", rec.Code)
	}
	close(release)
	<-done

	if got := scrape(t, srv).Counter("hotserve_sheds_total", obs.Label{Key: "route", Value: "/forecast"}); got != 1 {
		t.Fatalf("hotserve_sheds_total = %d, want 1", got)
	}
	logged := buf.String()
	shedLine := regexp.MustCompile(`access id=\d+ method=GET route=/forecast status=503 dur_ms=\d+\.\d+ shed=capacity`)
	if !shedLine.MatchString(logged) {
		t.Fatalf("shed not logged with reason:\n%s", logged)
	}
	okLine := regexp.MustCompile(`access id=\d+ method=GET route=/forecast status=200 dur_ms=\d+\.\d+ shed=-`)
	if !okLine.MatchString(logged) {
		t.Fatalf("successful request not logged:\n%s", logged)
	}
}

func TestAccessLogOffByDefault(t *testing.T) {
	srv, _ := testServer(t, 8)
	var buf bytes.Buffer
	srv.accessOut = &buf
	get(t, srv, "/forecast?model=Average&t=30&k=5")
	if buf.Len() != 0 {
		t.Fatalf("access log written without -access-log:\n%s", buf.String())
	}
}

func TestPprofBehindFlag(t *testing.T) {
	srv, _ := testServer(t, 8)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 404 {
		t.Fatalf("pprof exposed without -pprof: %d", rec.Code)
	}
	srv.enablePprof()
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Fatalf("pprof index not served after enablePprof: %d", rec.Code)
	}
}

// TestSetupStageMetrics: a server booted from a registry, with its
// dataset loaded from a file or generated, reports how long each start-up
// stage took, on /metrics as hotserve_setup_seconds{stage} and in one
// start-up line, and K's size and backing, as hotserve_kpi_bytes{backing}
// and on the same line, with the same values in both.
func TestSetupStageMetrics(t *testing.T) {
	cfg := core.Config{Seed: 2, Sectors: 150, Weeks: 8, TrainDays: 3}
	ds, err := core.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "net.hotd")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	kBytes := float64(8 * len(ds.K.Data))
	p, err := core.FromDataset(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registry.Open(filepath.Join(dir, "reg"), 0)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachRegistry(reg)
	tr, err := p.Train(core.Average, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Publish(tr); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		backing string
		data    []string
	}{
		{"file", []string{"-in", path}},
		{"anonymous", []string{"-sectors", "150", "-weeks", "8", "-seed", "2"}},
	} {
		if runtime.GOOS != "linux" {
			c.backing = "heap" // internal/mmapfile maps on linux only
		}
		var out strings.Builder
		srv, _, err := setup(append(c.data, "-registry", filepath.Join(dir, "reg"), "-watch", "0"), &out)
		if err != nil {
			t.Fatal(err)
		}
		sc := scrape(t, srv)
		var secs [len(setupStages)]float64
		for i, stage := range setupStages {
			v, ok := sc.Value("hotserve_setup_seconds", obs.Label{Key: "stage", Value: stage})
			if !ok || v <= 0 {
				t.Errorf("%s: hotserve_setup_seconds{stage=%q} = %v (present=%v), want > 0", c.backing, stage, v, ok)
			}
			secs[i] = v
		}
		for _, b := range []string{"file", "anonymous", "heap"} {
			v, ok := sc.Value("hotserve_kpi_bytes", obs.Label{Key: "backing", Value: b})
			if want := b == c.backing; ok != want || (want && v != kBytes) {
				t.Errorf("%s: hotserve_kpi_bytes{backing=%q} = %v (present=%v), want %v bytes only under %q", c.backing, b, v, ok, kBytes, c.backing)
			}
		}
		line := fmt.Sprintf("start-up: load %.3fs, prepare %.3fs, registry %.3fs, K %.1f MiB %s\n",
			secs[0], secs[1], secs[2], kBytes/(1<<20), c.backing)
		if !strings.Contains(out.String(), line) {
			t.Errorf("start-up output lacks %q:\n%s", line, out.String())
		}
	}
}

package main

import (
	"bytes"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/obs"
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

	// The end-to-end and stage histograms recorded the successful request.
	lat, ok := after.Histogram("hotserve_request_seconds", route)
	if !ok || lat.Count == 0 {
		t.Errorf("request latency histogram empty (present=%v)", ok)
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
	if after.Counter("forecast_batch_predicts_total") == 0 {
		t.Error("forecast_batch_predicts_total did not advance")
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

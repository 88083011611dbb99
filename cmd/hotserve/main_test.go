package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/registry"
)

func testPipeline(t testing.TB) *core.Pipeline {
	t.Helper()
	p, err := core.NewPipeline(core.Config{Seed: 2, Sectors: 150, Weeks: 8, TrainDays: 3, ForestTrees: 4})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// testServer builds a tiny pipeline, trains two artifacts and wires them
// into a static-mode server with the given admission bound.
func testServer(t testing.TB, maxInflight int) (*server, *core.Pipeline) {
	t.Helper()
	p := testPipeline(t)
	avg, err := p.Train(core.Average, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := p.Train(core.Tree, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(p, maxInflight)
	if err := srv.setStatic([]forecast.Trained{avg, tree}); err != nil {
		t.Fatal(err)
	}
	return srv, p
}

// registryServer builds a registry with one published Average version and
// a server in registry mode on top of it, returning both plus a publisher
// handle for later versions.
func registryServer(t testing.TB) (*server, *core.Pipeline, *registry.Registry) {
	t.Helper()
	p := testPipeline(t)
	dir := t.TempDir()
	pub, err := registry.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := p.Train(core.Average, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(tr); err != nil {
		t.Fatal(err)
	}
	srv := newServer(p, 8)
	reg, err := registry.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.attachRegistry(reg); err != nil {
		t.Fatal(err)
	}
	return srv, p, pub
}

func get(t testing.TB, srv *server, url string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("%s: non-JSON response %q: %v", url, rec.Body.String(), err)
	}
	return rec.Code, body
}

func post(t testing.TB, srv *server, url, body string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", url, strings.NewReader(body)))
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: non-JSON response %q: %v", url, rec.Body.String(), err)
	}
	return rec.Code, out
}

func TestHealthz(t *testing.T) {
	srv, p := testServer(t, 4)
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || body["status"] != "ok" || body["mode"] != "static" {
		t.Fatalf("healthz = %d %v", code, body)
	}
	if int(body["sectors"].(float64)) != p.Sectors() || int(body["days"].(float64)) != p.Days() {
		t.Fatalf("healthz shape = %v", body)
	}
	models := body["models"].([]any)
	if len(models) != 2 {
		t.Fatalf("models = %v", models)
	}
	first := models[0].(map[string]any)
	if first["model"] != "Average" || first["h"].(float64) != 3 {
		t.Fatalf("model inventory = %v", first)
	}
	second := models[1].(map[string]any)
	// The feature projection: the Tree reads a subset of its extractor's
	// columns; the baseline reads none and omits both fields.
	for _, field := range []string{"features_read", "width"} {
		if v, ok := first[field]; ok {
			t.Fatalf("baseline reports %s = %v", field, v)
		}
	}
	read, _ := second["features_read"].(float64)
	width, _ := second["width"].(float64)
	if read < 1 || read > width {
		t.Fatalf("classifier reads %v of %v feature columns", read, width)
	}
	// The inference block: the Tree artifact carries a flat engine (the
	// Average baseline does not), and serving a forecast through it must
	// move the batch-call counter. Static-mode artifacts live on the heap,
	// so nothing is mmap-backed here.
	inf := body["inference"].(map[string]any)
	if inf["flattened_models"].(float64) != 1 || inf["flat_bytes"].(float64) <= 0 {
		t.Fatalf("inference stats = %v", inf)
	}
	if inf["mmap_models"].(float64) != 0 || inf["mmap_bytes"].(float64) != 0 {
		t.Fatalf("static artifacts claim mmap backing: %v", inf)
	}
	if inf["heap_flat_bytes"].(float64) != inf["flat_bytes"].(float64) {
		t.Fatalf("heap accounting disagrees with flat_bytes: %v", inf)
	}
	before := inf["batch_calls"].(float64)
	if code, fb := get(t, srv, "/forecast?model=Tree&t=30&k=5"); code != http.StatusOK {
		t.Fatalf("forecast for batch-counter check = %d %v", code, fb)
	}
	_, body = get(t, srv, "/healthz")
	after := body["inference"].(map[string]any)["batch_calls"].(float64)
	if after < before+1 {
		t.Fatalf("batch_calls did not advance: %v -> %v", before, after)
	}
}

// TestHealthzMmapRegistry: a classifier served out of a registry is
// loaded through the mmap path, so /healthz must report it as
// mmap-backed, and forecasts must still serve.
func TestHealthzMmapRegistry(t *testing.T) {
	p := testPipeline(t)
	dir := t.TempDir()
	pub, err := registry.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := p.Train(core.Tree, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(tree); err != nil {
		t.Fatal(err)
	}
	srv := newServer(p, 8)
	reg, err := registry.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.attachRegistry(reg); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, srv, "/healthz")
	m := body["models"].([]any)[0].(map[string]any)
	inf := body["inference"].(map[string]any)
	if inf["mmap_models"].(float64) != 1 || inf["mmap_bytes"].(float64) <= 0 {
		t.Fatalf("registry artifact not mmap-backed: %v", inf)
	}
	if m["mmap_bytes"].(float64) != inf["mmap_bytes"].(float64) {
		t.Fatalf("per-model mmap bytes disagree with totals: %v vs %v", m, inf)
	}
	// A mapped artifact contributes nothing to the heap-resident tally.
	if inf["heap_flat_bytes"].(float64) != 0 {
		t.Fatalf("mapped artifact counted as heap-resident: %v", inf)
	}
	if code, fb := get(t, srv, "/forecast?model=Tree&t=30&k=5"); code != http.StatusOK {
		t.Fatalf("forecast through mmap-backed artifact = %d %v", code, fb)
	}
}

func TestForecastEndpoint(t *testing.T) {
	srv, p := testServer(t, 4)
	code, body := get(t, srv, "/forecast?model=Tree&t=30&k=5")
	if code != http.StatusOK {
		t.Fatalf("forecast = %d %v", code, body)
	}
	if body["model"] != "Tree" || body["forecast_day"].(float64) != 33 {
		t.Fatalf("forecast meta = %v", body)
	}
	top := body["top"].([]any)
	if len(top) != 5 {
		t.Fatalf("top = %v", top)
	}
	// Scores arrive ranked descending.
	prev := 2.0
	for _, e := range top {
		s := e.(map[string]any)["score"].(float64)
		if s > prev {
			t.Fatalf("ranking not descending: %v", top)
		}
		prev = s
	}
	// Deterministic across calls.
	_, again := get(t, srv, "/forecast?model=Tree&t=30&k=5")
	a, _ := json.Marshal(body["top"])
	b, _ := json.Marshal(again["top"])
	if string(a) != string(b) {
		t.Fatalf("forecast not deterministic:\n%s\n%s", a, b)
	}
	// Default t is the latest day with a full window.
	code, body = get(t, srv, "/forecast?model=Average")
	if code != http.StatusOK || int(body["t"].(float64)) != p.Days()-1 {
		t.Fatalf("default-t forecast = %d %v", code, body)
	}
}

func TestForecastSelectionErrors(t *testing.T) {
	srv, _ := testServer(t, 4)
	if code, _ := get(t, srv, "/forecast?model=RF-F1"); code != http.StatusNotFound {
		t.Fatalf("unknown model = %d, want 404", code)
	}
	if code, body := get(t, srv, "/forecast"); code != http.StatusBadRequest ||
		!strings.Contains(body["error"].(string), "ambiguous") {
		t.Fatalf("ambiguous selection = %d %v", code, body)
	}
	if code, _ := get(t, srv, "/forecast?model=Tree&t=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad t = %d, want 400", code)
	}
	if code, _ := get(t, srv, "/forecast?model=Tree&t=2"); code != http.StatusBadRequest {
		t.Fatalf("t without window history = %d, want 400", code)
	}
	if code, _ := get(t, srv, "/forecast?model=Tree&k=0"); code != http.StatusBadRequest {
		t.Fatalf("k=0 = %d, want 400", code)
	}
	if code, _ := get(t, srv, "/forecast?target=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad target = %d, want 400", code)
	}
}

// TestForecastNumericSelectors: h and w select by integer value, like t
// and k, so any spelling strconv.Atoi accepts selects the same artifact
// and an unparsable one is a 400 naming the selector, not a 404.
func TestForecastNumericSelectors(t *testing.T) {
	srv, _ := testServer(t, 4)
	for _, tc := range []struct {
		query string
		code  int
		err   string
	}{
		{"model=Tree&h=3&t=30", http.StatusOK, ""},
		{"model=Tree&h=03&t=30", http.StatusOK, ""},
		{"model=Tree&h=%2B3&t=30", http.StatusOK, ""},
		{"model=Tree&w=07&t=30", http.StatusOK, ""},
		{"model=Tree&h=03&w=007&t=030", http.StatusOK, ""},
		{"model=Tree&h=4&t=30", http.StatusNotFound, "no artifact matches"},
		{"model=Tree&h=abc&t=30", http.StatusBadRequest, `bad h "abc"`},
		{"model=Tree&w=7x&t=30", http.StatusBadRequest, `bad w "7x"`},
		// Integer selectors parse before lookup, as a batch body's do, so
		// a bad one is named even when no artifact matches or the target
		// is unknown.
		{"model=Nope&t=bogus", http.StatusBadRequest, `bad t "bogus"`},
		{"target=bogus&h=x", http.StatusBadRequest, `bad h "x"`},
		{"model=Nope&k=ten", http.StatusBadRequest, "bad k"},
		{"model=Tree&k=0", http.StatusBadRequest, "bad k"},
	} {
		code, body := get(t, srv, "/forecast?"+tc.query)
		if code != tc.code {
			t.Errorf("?%s = %d %v, want %d", tc.query, code, body, tc.code)
			continue
		}
		if tc.err != "" {
			if msg, _ := body["error"].(string); !strings.Contains(msg, tc.err) {
				t.Errorf("?%s error %q, want it to contain %q", tc.query, msg, tc.err)
			}
		} else if body["model"] != "Tree" || body["h"].(float64) != 3 || body["w"].(float64) != 7 {
			t.Errorf("?%s answered %v", tc.query, body)
		}
	}
}

// TestForecastAdmissionControl: when every slot is held, /forecast and
// /forecast/batch shed load with 503 instead of queuing; /healthz stays
// available.
func TestForecastAdmissionControl(t *testing.T) {
	srv, _ := testServer(t, 1)
	srv.sem.Acquire() // occupy the only slot
	code, body := get(t, srv, "/forecast?model=Tree")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("saturated forecast = %d %v, want 503", code, body)
	}
	// A GET is a batch of one: it costs one slot and says so.
	if msg, _ := body["error"].(string); !strings.Contains(msg, "batch of 1 needs 1 of 1 slots") {
		t.Fatalf("503 body does not explain the charge: %v", body)
	}
	// A query that does not parse is refused before admission.
	if code, body := get(t, srv, "/forecast?model=Tree&t=bogus"); code != http.StatusBadRequest {
		t.Fatalf("saturated unparsable forecast = %d %v, want 400", code, body)
	}
	if code, _ := post(t, srv, "/forecast/batch", `{"queries":[{"model":"Tree"}]}`); code != http.StatusServiceUnavailable {
		t.Fatalf("saturated batch = %d, want 503", code)
	}
	if code, _ := get(t, srv, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz unavailable while saturated: %d", code)
	}
	srv.sem.Release()
	if code, _ := get(t, srv, "/forecast?model=Tree"); code != http.StatusOK {
		t.Fatalf("freed slot still refused: %d", code)
	}
}

// TestBatchWeightedAdmission: a /forecast/batch charges one -max-inflight
// slot per query (capped at capacity), all-or-nothing, so the admission
// bound tracks forecasts in flight rather than requests.
func TestBatchWeightedAdmission(t *testing.T) {
	srv, _ := testServer(t, 4)
	batch := func(k int) string {
		qs := make([]string, k)
		for i := range qs {
			qs[i] = `{"model":"Tree","t":30}`
		}
		return `{"queries":[` + strings.Join(qs, ",") + `]}`
	}

	// Idle server: a batch larger than the capacity still fits (cost caps
	// at -max-inflight) — weighted admission must not make big batches
	// unservable.
	if code, body := post(t, srv, "/forecast/batch", batch(6)); code != http.StatusOK {
		t.Fatalf("idle oversized batch = %d %v, want 200", code, body)
	}

	// With 2 of 4 slots held, a batch of 3 needs 3 free slots and must be
	// rejected whole; a batch of 2 fits exactly.
	srv.sem.Acquire()
	srv.sem.Acquire()
	code, body := post(t, srv, "/forecast/batch", batch(3))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("batch of 3 with 2 free slots = %d %v, want 503", code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "needs 3 of 4 slots") {
		t.Fatalf("503 body does not explain the charge: %v", body)
	}
	if code, body := post(t, srv, "/forecast/batch", batch(2)); code != http.StatusOK {
		t.Fatalf("batch of 2 with 2 free slots = %d %v, want 200", code, body)
	}
	// The rejected and admitted batches must have released everything:
	// both held slots are still ours and the other two are free again.
	if !srv.sem.TryAcquireN(2) {
		t.Fatal("batch admission leaked slots")
	}
	srv.sem.ReleaseN(4)

	// All slots free again: the full-capacity batch is admitted.
	if code, _ := post(t, srv, "/forecast/batch", batch(4)); code != http.StatusOK {
		t.Fatalf("full-capacity batch after release = %d, want 200", code)
	}
}

// TestBatchConcurrentAdmission: the batch cost is one atomic claim, so two
// concurrent full-capacity batches on an idle server can never starve each
// other into mutual 503s — every round, at least one must be admitted.
func TestBatchConcurrentAdmission(t *testing.T) {
	srv, _ := testServer(t, 2)
	body := `{"queries":[{"model":"Tree","t":30},{"model":"Tree","t":30}]}`
	for round := 0; round < 20; round++ {
		codes := make(chan int, 2)
		for g := 0; g < 2; g++ {
			go func() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/forecast/batch", strings.NewReader(body)))
				codes <- rec.Code
			}()
		}
		a, b := <-codes, <-codes
		if a != http.StatusOK && b != http.StatusOK {
			t.Fatalf("round %d: concurrent batches mutually rejected (%d, %d) with full capacity free", round, a, b)
		}
	}
}

func TestSetStaticRejectsDuplicates(t *testing.T) {
	srv, p := testServer(t, 1)
	dup := srv.active.Load().models[0].tr
	if err := newServer(p, 1).setStatic([]forecast.Trained{dup, dup}); err == nil {
		t.Fatal("duplicate artifact accepted")
	}
	if err := newServer(p, 1).setStatic(nil); err == nil {
		t.Fatal("empty artifact set accepted")
	}
}

// TestSetupFromArtifactFile: the flag path — train via the core pipeline,
// save to disk, then boot the server from the file.
func TestSetupFromArtifactFile(t *testing.T) {
	p := testPipeline(t)
	tr, err := p.Train(core.Average, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "avg.hotm")
	if err := p.SaveModel(path, tr); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	srv, addr, err := setup([]string{
		"-sectors", "150", "-weeks", "8", "-seed", "2",
		"-models", path, "-addr", "127.0.0.1:0",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:0" {
		t.Fatalf("addr = %q", addr)
	}
	if !strings.Contains(buf.String(), "loaded "+path) || !strings.Contains(buf.String(), "serving") {
		t.Fatalf("missing startup summary:\n%s", buf.String())
	}
	if code, _ := get(t, srv, "/forecast?model=Average&t=30"); code != http.StatusOK {
		t.Fatalf("served forecast = %d", code)
	}
	// Static mode has no registry to reload from.
	if code, _ := post(t, srv, "/reload", ""); code != http.StatusConflict {
		t.Fatalf("static-mode reload = %d, want 409", code)
	}
	if _, _, err := setup([]string{"-sectors", "150"}, &strings.Builder{}); err == nil {
		t.Fatal("missing -models/-registry accepted")
	}
	if _, _, err := setup([]string{"-models", path, "-registry", t.TempDir()}, &strings.Builder{}); err == nil {
		t.Fatal("-models together with -registry accepted")
	}
}

// TestSetupRejectsForeignArtifact: a dataset-fingerprint mismatch between
// the artifact and the serving context fails at startup, loudly, instead
// of serving wrong rankings.
func TestSetupRejectsForeignArtifact(t *testing.T) {
	other, err := core.NewPipeline(core.Config{Seed: 9, Sectors: 150, Weeks: 8, TrainDays: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := other.Train(core.Average, forecast.BeHot, 30, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "foreign.hotm")
	if err := other.SaveModel(path, tr); err != nil {
		t.Fatal(err)
	}
	_, _, err = setup([]string{
		"-sectors", "150", "-weeks", "8", "-seed", "2", "-models", path,
	}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "different dataset") {
		t.Fatalf("foreign artifact served (err=%v)", err)
	}
}

// TestSetupFromRegistry: the registry flag path — publish two versions,
// boot from the directory, observe the latest one serving and /healthz
// reporting registry mode.
func TestSetupFromRegistry(t *testing.T) {
	p := testPipeline(t)
	dir := t.TempDir()
	reg, err := registry.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.AttachRegistry(reg)
	for _, day := range []int{30, 31} {
		tr, err := p.Train(core.Average, forecast.BeHot, day, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Publish(tr); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	srv, _, err := setup([]string{
		"-sectors", "150", "-weeks", "8", "-seed", "2", "-registry", dir,
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "loaded version 2") {
		t.Fatalf("startup summary missing version: %s", buf.String())
	}
	code, body := get(t, srv, "/healthz")
	if code != http.StatusOK || body["mode"] != "registry" {
		t.Fatalf("healthz = %d %v", code, body)
	}
	models := body["models"].([]any)
	if len(models) != 1 || models[0].(map[string]any)["version"].(float64) != 2 {
		t.Fatalf("registry healthz models = %v", models)
	}
	if code, body := get(t, srv, "/forecast?model=Average&t=31&k=3"); code != http.StatusOK {
		t.Fatalf("registry forecast = %d %v", code, body)
	}
	// An empty registry refuses to serve.
	if _, _, err := setup([]string{
		"-sectors", "150", "-weeks", "8", "-seed", "2", "-registry", t.TempDir(),
	}, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), "no artifacts") {
		t.Fatalf("empty registry served (err=%v)", err)
	}
}

// TestReloadHotSwap: POST /reload picks up versions published after boot
// and swaps them in; /healthz reports the new version and generation.
func TestReloadHotSwap(t *testing.T) {
	srv, p, pub := registryServer(t)
	if code, body := post(t, srv, "/reload", ""); code != http.StatusOK || body["reloaded"] != false {
		t.Fatalf("idle reload = %d %v", code, body)
	}
	_, before := get(t, srv, "/healthz")
	if v := before["models"].([]any)[0].(map[string]any)["version"].(float64); v != 1 {
		t.Fatalf("initial version = %v", v)
	}

	tr, err := p.Train(core.Average, forecast.BeHot, 31, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Publish(tr); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, srv, "/reload", "")
	if code != http.StatusOK || body["reloaded"] != true {
		t.Fatalf("reload after publish = %d %v", code, body)
	}
	_, after := get(t, srv, "/healthz")
	m := after["models"].([]any)[0].(map[string]any)
	if m["version"].(float64) != 2 || m["cutoff"].(float64) != 28 {
		t.Fatalf("hot-swapped model = %v", m)
	}
	if after["reloads"].(float64) != 1 {
		t.Fatalf("reload counter = %v", after["reloads"])
	}
}

// TestHotSwapZeroDowntime is the acceptance test for the hot-swap path:
// continuous /forecast traffic across a /reload that swaps artifact
// versions must observe zero non-200 responses and consistent rankings
// (torn reads would trip the race detector and the per-response checks).
func TestHotSwapZeroDowntime(t *testing.T) {
	srv, p, pub := registryServer(t)
	var (
		stop    atomic.Bool
		bad     atomic.Int64
		served  atomic.Int64
		wg      sync.WaitGroup
		workers = 4
		badBody atomic.Value
	)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("GET", "/forecast?model=Average&t=31&k=5", nil))
				served.Add(1)
				var body map[string]any
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &body) != nil {
					bad.Add(1)
					badBody.Store(fmt.Sprintf("%d %s", rec.Code, rec.Body.String()))
					continue
				}
				if top := body["top"].([]any); len(top) != 5 {
					bad.Add(1)
					badBody.Store(rec.Body.String())
				}
			}
		}()
	}
	// Publish and hot-swap three fresher versions under fire.
	for _, day := range []int{31, 32, 33} {
		tr, err := p.Train(core.Average, forecast.BeHot, day, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pub.Publish(tr); err != nil {
			t.Fatal(err)
		}
		if code, body := post(t, srv, "/reload", ""); code != http.StatusOK || body["reloaded"] != true {
			t.Fatalf("reload under load = %d %v", code, body)
		}
		time.Sleep(20 * time.Millisecond) // let traffic run on the new set
	}
	stop.Store(true)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d/%d requests failed across hot swaps; last: %v", n, served.Load(), badBody.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served during the swap window")
	}
	_, health := get(t, srv, "/healthz")
	if v := health["models"].([]any)[0].(map[string]any)["version"].(float64); v != 4 {
		t.Fatalf("final version = %v, want 4", v)
	}
}

// TestBatchMatchesSingleForecasts is the acceptance test for the batch
// endpoint: a /forecast/batch response must be bit-identical, query for
// query, to the same requests issued as single /forecast calls.
func TestBatchMatchesSingleForecasts(t *testing.T) {
	srv, _ := testServer(t, 8)
	queries := []string{
		"/forecast?model=Average&t=30&k=5",
		"/forecast?model=Tree&t=30&k=5",
		"/forecast?model=Tree&t=35&k=10",
		"/forecast?model=Average&k=3",
		"/forecast?model=Tree&t=2", // fails: no window history
	}
	batch := `{"queries":[
		{"model":"Average","t":30,"k":5},
		{"model":"Tree","t":30,"k":5},
		{"model":"Tree","t":35,"k":10},
		{"model":"Average","k":3},
		{"model":"Tree","t":2}
	]}`
	code, body := post(t, srv, "/forecast/batch", batch)
	if code != http.StatusOK {
		t.Fatalf("batch = %d %v", code, body)
	}
	results := body["results"].([]any)
	if len(results) != len(queries) {
		t.Fatalf("results = %d, want %d", len(results), len(queries))
	}
	for i, q := range queries {
		singleCode, single := get(t, srv, q)
		entry := results[i].(map[string]any)
		if singleCode != http.StatusOK {
			if entry["error"] == nil || int(entry["status"].(float64)) != singleCode {
				t.Fatalf("query %d: single failed with %d, batch entry = %v", i, singleCode, entry)
			}
			continue
		}
		delete(single, "elapsed_ms") // timing is the one legitimate difference
		a, _ := json.Marshal(single)
		b, _ := json.Marshal(entry)
		if string(a) != string(b) {
			t.Fatalf("query %d diverges:\nsingle: %s\nbatch:  %s", i, a, b)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	srv, _ := testServer(t, 4)
	if code, _ := post(t, srv, "/forecast/batch", "not json"); code != http.StatusBadRequest {
		t.Fatalf("bad body = %d, want 400", code)
	}
	if code, _ := post(t, srv, "/forecast/batch", `{"queries":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty batch = %d, want 400", code)
	}
	srv.batchMax = 2
	if code, body := post(t, srv, "/forecast/batch",
		`{"queries":[{"model":"Tree"},{"model":"Tree"},{"model":"Tree"}]}`); code != http.StatusBadRequest ||
		!strings.Contains(body["error"].(string), "limit") {
		t.Fatalf("oversized batch = %d %v, want 400", code, body)
	}
}

// TestGracefulShutdown: cancelling the serve context (SIGTERM in
// production) must stop accepting but finish the in-flight request —
// observed as a 200 on a request that was mid-handler when shutdown began.
func TestGracefulShutdown(t *testing.T) {
	srv, _ := testServer(t, 4)
	srv.drain = 5 * time.Second
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.testHookForecast = func() {
		once.Do(func() { close(entered) })
		<-release
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.serve(ctx, ln, &strings.Builder{}) }()

	respDone := make(chan error, 1)
	var status int
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/forecast?model=Tree&t=30")
		if err == nil {
			status = resp.StatusCode
			resp.Body.Close()
		}
		respDone <- err
	}()

	<-entered // the request is inside the handler
	cancel()  // SIGTERM
	select {
	case err := <-serveDone:
		t.Fatalf("serve returned %v while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-respDone; err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", err)
	}
	if status != http.StatusOK {
		t.Fatalf("in-flight request got %d, want 200", status)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve = %v, want clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not return after drain")
	}
	// The listener is closed: new connections are refused.
	if _, err := http.Get("http://" + ln.Addr().String() + "/healthz"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

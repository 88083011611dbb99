// Command hotserve is the inference half of the train-once workflow: it
// loads trained-model artifacts — from explicit .hotm files or from a
// model registry (internal/registry) — rebuilds the serving context from
// the same dataset the models were trained on (enforced by the artifacts'
// dataset fingerprints), and serves per-sector hot-spot forecasts over
// HTTP. Nothing is fitted at serve time — requests only extract the
// feature window ending at the requested day and run the preloaded
// artifact, so latency is prediction-only.
//
// Registry workflow (train → publish → serve → reload):
//
//	hotforecast -sectors 600 -seed 2 -models RF-F1 -t 60 -h 7 -w 7 -registry ./models
//	hotserve    -sectors 600 -seed 2 -registry ./models -addr :8080
//	...retrain and publish a fresher version, then either wait for the
//	manifest watcher (-watch) or force the swap:
//	curl -X POST 'http://localhost:8080/reload'
//
// The active artifact set lives behind an atomic pointer: a reload builds
// the new set, swaps the pointer, and in-flight requests finish on the
// snapshot they started with — zero dropped requests, zero torn reads.
//
// Endpoints:
//
//	GET  /healthz         liveness + the active artifact inventory with
//	                      registry version IDs
//	GET  /forecast        top-k sector ranking; params: model, target
//	                      (hot|become), h, w (artifact selectors), t
//	                      (predict day, default latest), k (default 10)
//	POST /forecast/batch  JSON {"queries": [{model, target, h, w, t, k}]}:
//	                      many rankings per round trip, fanned across
//	                      cores; results are bit-identical to the same
//	                      queries issued as single /forecast calls
//	POST /reload          re-read the registry manifest and hot-swap the
//	                      active artifact set (registry mode only)
//
// Concurrent forecast work is bounded by -max-inflight (admission control
// through internal/parallel's semaphore) with weighted charging: a
// /forecast call costs one slot, a /forecast/batch of k queries costs
// min(k, -max-inflight) slots all-or-nothing — so the bound tracks
// forecasts in flight, not requests. Excess work gets 503 rather than
// queuing without bound. SIGINT/SIGTERM
// stop the listener and drain in-flight requests for up to -drain before
// the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/registry"
	"repro/internal/simnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hotserve: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable entry point: it builds the serving context, loads
// the artifacts, binds the socket and blocks serving HTTP until a
// termination signal drains it.
func run(args []string, out io.Writer) error {
	srv, addr, err := setup(args, out)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return srv.serve(ctx, ln, out)
}

// setup parses flags and assembles the server without binding the socket,
// so tests can drive the handler directly.
func setup(args []string, out io.Writer) (*server, string, error) {
	fs := flag.NewFlagSet("hotserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		in       = fs.String("in", "", "dataset path (empty = generate; must match the training dataset)")
		sectors  = fs.Int("sectors", 600, "sectors when generating")
		weeks    = fs.Int("weeks", 0, "weeks when generating (0 = the paper's 18)")
		seed     = fs.Uint64("seed", 1, "seed when generating")
		models   = fs.String("models", "", "comma-separated trained-artifact paths to preload (static mode)")
		regDir   = fs.String("registry", "", "model-registry directory to serve the latest version of every task from")
		watch    = fs.Duration("watch", 5*time.Second, "registry manifest poll interval for automatic hot reload (0 disables; POST /reload always works)")
		drain    = fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for draining in-flight requests")
		cacheMB  = fs.Int("cache-mb", 256, "feature-matrix cache budget in MiB (0 disables caching)")
		inflight = fs.Int("max-inflight", 2*runtime.GOMAXPROCS(0), "max concurrent forecast requests; excess gets 503")
		batchMax = fs.Int("batch-max", 256, "max queries per /forecast/batch request")
		pprofOn  = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the serving mux")
		accLog   = fs.Bool("access-log", false, "log one structured line per request (id, route, status, duration, shed reason) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return nil, "", err
	}
	if (*models == "") == (*regDir == "") {
		return nil, "", fmt.Errorf("pass exactly one of -models (artifact files) or -registry (registry directory)")
	}

	cfg := core.Config{Seed: *seed, Sectors: *sectors, Weeks: *weeks,
		CacheBytes: forecast.CacheBytesMB(*cacheMB)}
	var p *core.Pipeline
	var err error
	if *in == "" {
		p, err = core.NewPipeline(cfg)
	} else {
		var ds *simnet.Dataset
		if ds, err = simnet.LoadFile(*in); err == nil {
			p, err = core.FromDataset(ds, cfg)
		}
	}
	if err != nil {
		return nil, "", err
	}

	s := newServer(p, *inflight)
	s.watch = *watch
	s.drain = *drain
	s.batchMax = *batchMax
	s.accessLog = *accLog
	if *pprofOn {
		s.enablePprof()
	}

	if *regDir != "" {
		reg, err := registry.Open(*regDir, 0)
		if err != nil {
			return nil, "", err
		}
		if err := s.attachRegistry(reg); err != nil {
			return nil, "", err
		}
		for _, sm := range s.active.Load().models {
			fmt.Fprintf(out, "loaded version %d: %s target %s, h=%d w=%d, cutoff day %d\n",
				sm.version, sm.tr.ModelName(), sm.tr.Target(), sm.tr.Horizon(), sm.tr.Window(), sm.tr.Cutoff())
		}
	} else {
		var arts []forecast.Trained
		for _, path := range strings.Split(*models, ",") {
			path = strings.TrimSpace(path)
			tr, err := p.LoadModel(path)
			if err != nil {
				return nil, "", err
			}
			arts = append(arts, tr)
			fmt.Fprintf(out, "loaded %s: %s target %s, h=%d w=%d, cutoff day %d\n",
				path, tr.ModelName(), tr.Target(), tr.Horizon(), tr.Window(), tr.Cutoff())
		}
		if err := s.setStatic(arts); err != nil {
			return nil, "", err
		}
	}

	fmt.Fprintf(out, "serving %d sectors x %d days with %d artifact(s) on %s (max %d in-flight forecasts)\n",
		p.Sectors(), p.Days(), len(s.active.Load().models), *addr, *inflight)
	return s, *addr, nil
}

// servedModel is one active artifact plus its registry version (0 in
// static -models mode).
type servedModel struct {
	tr      forecast.Trained
	version int
}

// degradedTask records one task a reload could not bring fully up to date:
// the newest loadable version failed verification (and, when a previous
// generation held a decoded artifact, that artifact was carried forward so
// the task keeps serving).
type degradedTask struct {
	Task string `json:"task"`
	// Err is the failure that degraded the task (checksum mismatch, decode
	// error, fingerprint mismatch).
	Err string `json:"error"`
	// CarriedVersion is the previous-generation version still serving the
	// task; 0 when the task has no servable artifact at all.
	CarriedVersion int `json:"carried_version,omitempty"`
}

// artifactSet is one immutable generation of the serving inventory. The
// active set is swapped wholesale behind an atomic pointer; requests
// snapshot it once and never observe a half-swapped inventory.
type artifactSet struct {
	models   []servedModel
	degraded []degradedTask // tasks serving carried-forward (or no) artifacts
	gen      uint64         // registry generation the set was loaded at
}

// checkSet rejects empty and ambiguous inventories.
func checkSet(set *artifactSet) error {
	if len(set.models) == 0 {
		return fmt.Errorf("hotserve: no artifacts to serve")
	}
	seen := map[string]bool{}
	for _, sm := range set.models {
		id := artifactID(sm.tr)
		if seen[id] {
			return fmt.Errorf("hotserve: duplicate artifact %s", id)
		}
		seen[id] = true
	}
	return nil
}

// server is the HTTP serving state: the pipeline (data + caches), the
// hot-swappable artifact set, and the admission semaphore.
type server struct {
	p        *core.Pipeline
	reg      *registry.Registry // nil in static -models mode
	active   atomic.Pointer[artifactSet]
	sem      *parallel.Semaphore
	mux      *http.ServeMux
	m        *serverMetrics
	start    time.Time
	watch    time.Duration
	drain    time.Duration
	batchMax int
	reloadMu sync.Mutex // serializes reload(): watch ticks vs POST /reload

	// accessLog enables one structured line per request on accessOut.
	accessLog bool
	accessOut io.Writer
	reqID     atomic.Uint64

	// testHookForecast, when non-nil, runs inside every admitted forecast
	// request — the shutdown-drain and hot-swap tests gate on it.
	testHookForecast func()
}

// newServer wires the routes around a pipeline. The artifact inventory is
// attached afterwards with setStatic or attachRegistry.
func newServer(p *core.Pipeline, maxInflight int) *server {
	s := &server{p: p, sem: parallel.NewSemaphore(maxInflight), mux: http.NewServeMux(),
		m: newServerMetrics(), start: time.Now(), drain: 10 * time.Second, batchMax: 256,
		accessOut: os.Stderr}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /forecast", s.handleForecast)
	s.mux.HandleFunc("POST /forecast/batch", s.handleBatch)
	s.mux.HandleFunc("POST /reload", s.handleReload)
	// One scrape covers the server-scoped series plus the process-wide
	// library series (caches, kernels, registry, pools).
	s.mux.Handle("GET /metrics", obs.Handler(obs.Default(), s.m.registry))
	s.registerInventory()
	parallel.RegisterSemaphore(s.sem)
	return s
}

// setStatic installs a fixed artifact inventory (-models mode).
func (s *server) setStatic(arts []forecast.Trained) error {
	set := &artifactSet{}
	for _, tr := range arts {
		set.models = append(set.models, servedModel{tr: tr})
	}
	if err := checkSet(set); err != nil {
		return err
	}
	s.active.Store(set)
	return nil
}

// attachRegistry switches the server to registry mode and loads the
// initial artifact set.
func (s *server) attachRegistry(reg *registry.Registry) error {
	s.p.AttachRegistry(reg)
	s.reg = reg
	set, err := s.loadRegistrySet(nil)
	if err != nil {
		return err
	}
	s.active.Store(set)
	return nil
}

// ServeHTTP implements http.Handler. With -access-log the writer is
// wrapped to capture status and shed reason, and one structured line is
// emitted per request; without it requests pass straight through with no
// wrapper allocation.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.accessLog {
		s.mux.ServeHTTP(w, r)
		return
	}
	rec := &accessRecorder{ResponseWriter: w, status: http.StatusOK}
	t0 := time.Now()
	s.mux.ServeHTTP(rec, r)
	s.logAccess(s.reqID.Add(1), r, rec, time.Since(t0))
}

// serve runs the HTTP server on ln until ctx is cancelled (SIGINT/SIGTERM
// in production), then stops accepting and drains in-flight requests for
// up to s.drain.
func (s *server) serve(ctx context.Context, ln net.Listener, out io.Writer) error {
	hs := &http.Server{Handler: s}
	if s.reg != nil && s.watch > 0 {
		go s.watchManifest(ctx, out)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		fmt.Fprintf(out, "shutting down: draining in-flight requests (up to %v)\n", s.drain)
		dctx, cancel := context.WithTimeout(context.Background(), s.drain)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil {
			return fmt.Errorf("hotserve: drain deadline exceeded: %w", err)
		}
		return nil
	}
}

// watchManifest polls the registry manifest and hot-swaps the artifact set
// when a publish or prune lands — the hands-off half of /reload.
func (s *server) watchManifest(ctx context.Context, out io.Writer) {
	tick := time.NewTicker(s.watch)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			swapped, n, err := s.reload()
			if err != nil {
				fmt.Fprintf(out, "watch: reload failed, keeping current artifacts: %v\n", err)
				continue
			}
			if swapped {
				fmt.Fprintf(out, "watch: hot-swapped to %d artifact(s), generation %d\n", n, s.active.Load().gen)
			}
		}
	}
}

// loadRegistrySet assembles the serving inventory from the registry: the
// latest loadable version of every published task (the registry itself
// quarantines corrupt versions and falls back to the newest that
// verifies), each checked against the serving dataset's fingerprint.
//
// prev is the currently active set (nil at initial attach). A task whose
// every version fails verification never voids the whole set: its decoded
// artifact from prev is carried forward and the task is marked degraded,
// so one corrupted publish cannot take down tasks that were serving fine —
// and a partial inventory is never swapped in over a fuller one.
func (s *server) loadRegistrySet(prev *artifactSet) (*artifactSet, error) {
	set := &artifactSet{gen: s.reg.Generation()}
	carry := map[string]servedModel{}
	if prev != nil {
		for _, sm := range prev.models {
			carry[artifactID(sm.tr)] = sm
		}
	}
	for _, task := range s.reg.List() {
		if len(task.Versions) == 0 {
			continue
		}
		tr, v, err := s.reg.LoadLatest(task.Key)
		if err == nil {
			if cerr := s.p.CheckArtifact(tr); cerr != nil {
				err = fmt.Errorf("hotserve: registry version %d: %w", v.ID, cerr)
			}
		}
		if err != nil {
			d := degradedTask{Task: task.Key.String(), Err: err.Error()}
			if sm, ok := carry[task.Key.String()]; ok {
				set.models = append(set.models, sm)
				d.CarriedVersion = sm.version
			}
			set.degraded = append(set.degraded, d)
			continue
		}
		set.models = append(set.models, servedModel{tr: tr, version: v.ID})
	}
	if err := checkSet(set); err != nil {
		return nil, err
	}
	return set, nil
}

// reload refreshes the registry manifest and, when it changed, builds and
// atomically swaps in the new artifact set. In-flight requests keep the
// snapshot they started with. Reloads are serialized so a slow reload
// racing a watch tick can never store an older set over a newer one.
// Returns whether a swap happened and the active artifact count.
func (s *server) reload() (bool, int, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if _, err := s.reg.Refresh(); err != nil {
		return false, len(s.active.Load().models), err
	}
	if s.reg.Generation() == s.active.Load().gen {
		return false, len(s.active.Load().models), nil
	}
	set, err := s.loadRegistrySet(s.active.Load())
	if err != nil {
		return false, len(s.active.Load().models), err
	}
	s.active.Store(set)
	s.m.reloads.Inc()
	return true, len(set.models), nil
}

func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	s.m.reqReload.Inc()
	if s.reg == nil {
		writeJSON(w, http.StatusConflict, errorBody{
			"not serving from a registry: restart with -registry to enable hot reload"})
		return
	}
	swapped, n, err := s.reload()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"reloaded":   swapped,
		"generation": s.active.Load().gen,
		"models":     n,
	})
}

func artifactID(tr forecast.Trained) string {
	return fmt.Sprintf("%s/%s/h=%d/w=%d", tr.ModelName(), tr.Target(), tr.Horizon(), tr.Window())
}

// modelInfo is the artifact inventory entry of /healthz.
type modelInfo struct {
	Model   string `json:"model"`
	Target  string `json:"target"`
	H       int    `json:"h"`
	W       int    `json:"w"`
	Cutoff  int    `json:"cutoff"`
	Version int    `json:"version,omitempty"`
	// MmapBytes is the size of the memory-mapped artifact file this model
	// serves from (zero-copy load); 0 when the model is heap-resident.
	MmapBytes int64 `json:"mmap_bytes,omitempty"`
	// FeaturesRead is how many feature columns a forecast builds — the
	// distinct features the model splits on — out of Width, the
	// extractor's full column count. Both are absent for baselines.
	FeaturesRead int `json:"features_read,omitempty"`
	Width        int `json:"width,omitempty"`
}

// classifierModel is implemented by artifacts that expose their
// residency and feature projection (forecast's classifier artifacts).
type classifierModel interface {
	MmapBytes() int64
	FeaturesRead() int
	FeatureWidth() int
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.m.reqHealthz.Inc()
	set := s.active.Load()
	// One source of truth with GET /metrics: the inventory numbers come
	// from the same summarize() the hotserve_* gauges read, and the
	// counters (batch_calls, reloads) are the obs-backed series.
	sum := summarize(set)
	body := map[string]any{
		"status":    "ok",
		"mode":      "static",
		"sectors":   s.p.Sectors(),
		"days":      s.p.Days(),
		"uptime_ms": time.Since(s.start).Milliseconds(),
		"models":    sum.infos,
		// The inference engine's vitals: how many active artifacts serve
		// through the flat batch engine, their memory split between
		// mmap-backed pages and heap-resident structures, and the
		// process-wide count of batch evaluations. Every classifier
		// artifact predicts through the flat engine, so batch_calls stays
		// zero only until a tree-backed model serves its first forecast.
		// mmap_bytes is artifact data served from the page cache (mapped
		// files); heap_flat_bytes is the flat footprint of heap-resident
		// classifiers; flat_bytes is every engine's full in-memory
		// accounting regardless of residency.
		"inference": map[string]any{
			"flattened_models": sum.flattened,
			"mmap_models":      sum.mapped,
			"flat_bytes":       sum.flatBytes,
			"mmap_bytes":       sum.mmapBytes,
			"heap_flat_bytes":  sum.heapBytes,
			"batch_calls":      forecast.BatchPredictCalls(),
		},
	}
	if s.reg != nil {
		body["mode"] = "registry"
		body["registry_dir"] = s.reg.Dir()
		body["generation"] = set.gen
		body["reloads"] = s.m.reloads.Value()
		// Fault posture. status stays "ok" — the process is alive and
		// serving — but degraded=true says some artifact failed verification:
		// either a version was quarantined (serving fell back to an older
		// one) or a whole task is riding on a carried-forward artifact.
		quar := s.reg.Quarantined()
		body["degraded"] = len(quar) > 0 || len(set.degraded) > 0
		body["quarantined_versions"] = quar
		if len(set.degraded) > 0 {
			body["degraded_tasks"] = set.degraded
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// forecastQuery is one normalized query: raw selector strings ("" =
// absent), shared by the URL and batch JSON forms so both endpoints
// resolve and score identically.
type forecastQuery struct {
	model, target, h, w, t, k string
}

// queryFromURL normalizes URL parameters.
func queryFromURL(q url.Values) forecastQuery {
	get := func(key string) string {
		if vs := q[key]; len(vs) > 0 {
			return vs[0]
		}
		return ""
	}
	return forecastQuery{model: get("model"), target: get("target"),
		h: get("h"), w: get("w"), t: get("t"), k: get("k")}
}

// batchQuery is one element of the /forecast/batch request body. Absent
// fields mean the same as absent URL parameters.
type batchQuery struct {
	Model  string `json:"model,omitempty"`
	Target string `json:"target,omitempty"`
	H      *int   `json:"h,omitempty"`
	W      *int   `json:"w,omitempty"`
	T      *int   `json:"t,omitempty"`
	K      *int   `json:"k,omitempty"`
}

// normalize maps the JSON form onto the shared query shape.
func (q batchQuery) normalize() forecastQuery {
	opt := func(v *int) string {
		if v == nil {
			return ""
		}
		return strconv.Itoa(*v)
	}
	return forecastQuery{model: q.Model, target: q.Target,
		h: opt(q.H), w: opt(q.W), t: opt(q.T), k: opt(q.K)}
}

// httpError is a handler failure with its response status.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func failf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// sectorScore is one ranking entry.
type sectorScore struct {
	Sector int     `json:"sector"`
	Score  float64 `json:"score"`
}

// forecastResult is one successful ranking: a batch entry, and the GET
// /forecast body after its elapsed_ms. Fields are declared in key order,
// so the encoding sorts keys like a map's would.
type forecastResult struct {
	ForecastDay int           `json:"forecast_day"`
	H           int           `json:"h"`
	Model       string        `json:"model"`
	T           int           `json:"t"`
	Target      string        `json:"target"`
	Top         []sectorScore `json:"top"`
	W           int           `json:"w"`
}

// forecastResponse is the GET /forecast body.
type forecastResponse struct {
	ElapsedMS int64 `json:"elapsed_ms"`
	*forecastResult
}

// batchEntry is one /forecast/batch result: a ranking, or the query's
// error and the status a single /forecast call would have answered.
type batchEntry struct {
	*forecastResult
	Error  string `json:"error,omitempty"`
	Status int    `json:"status,omitempty"`
}

// batchResponse is the /forecast/batch body.
type batchResponse struct {
	ElapsedMS int64        `json:"elapsed_ms"`
	Results   []batchEntry `json:"results"`
}

// errorBody is every error response's body.
type errorBody struct {
	Error string `json:"error"`
}

// rankBuffers is evaluate's per-query scratch: every sector's score and
// the top-k selection. Pooled, so a forecast allocates O(k), not
// O(sectors); nothing that outlives evaluate may alias them.
type rankBuffers struct {
	scores []float64
	top    []int
}

var rankPool = sync.Pool{New: func() any { return new(rankBuffers) }}

// evaluate resolves fq against the artifact-set snapshot, predicts and
// ranks, charging each stage (artifact lookup, predict, rank) of a
// successful evaluation to the stage histograms via sp. The single and
// batch endpoints both come here, so their rankings are bit-identical by
// construction (each batch query carries its own span).
func (s *server) evaluate(set *artifactSet, fq forecastQuery, sp *obs.Span) (*forecastResult, *httpError) {
	tr, herr := selectArtifact(set, fq)
	if herr != nil {
		return nil, herr
	}
	t, err := intOrDefault(fq.t, "t", s.p.Days()-1)
	if err != nil {
		return nil, failf(http.StatusBadRequest, "%v", err)
	}
	k, err := intOrDefault(fq.k, "k", 10)
	if err != nil || k < 1 {
		return nil, failf(http.StatusBadRequest, "bad k")
	}
	sp.Mark(stLookup)
	buf := rankPool.Get().(*rankBuffers)
	defer rankPool.Put(buf)
	scores, err := s.p.PredictInto(tr, t, tr.Window(), buf.scores)
	if err != nil {
		return nil, failf(http.StatusBadRequest, "%v", err)
	}
	buf.scores = scores
	sp.Mark(stPredict)
	buf.top = core.TopKInto(buf.top, scores, k)
	ranked := make([]sectorScore, len(buf.top))
	for i, id := range buf.top {
		ranked[i] = sectorScore{Sector: id, Score: scores[id]}
	}
	sp.Mark(stRank)
	s.m.forecasts.Inc()
	return &forecastResult{
		ForecastDay: t + tr.Horizon(),
		H:           tr.Horizon(),
		Model:       tr.ModelName(),
		T:           t,
		Target:      tr.Target().String(),
		Top:         ranked,
		W:           tr.Window(),
	}, nil
}

func (s *server) handleForecast(w http.ResponseWriter, r *http.Request) {
	s.m.reqForecast.Inc()
	sp := obs.StartSpan()
	if !s.sem.TryAcquire() {
		s.m.shedForecast.Inc()
		markShed(w, "capacity")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{"server at capacity, retry later"})
		return
	}
	defer s.sem.Release()
	sp.Mark(stAdmission)
	if s.testHookForecast != nil {
		s.testHookForecast()
	}

	start := time.Now()
	res, herr := s.evaluate(s.active.Load(), queryFromURL(r.URL.Query()), &sp)
	if herr != nil {
		s.m.errForecast.Inc()
		writeJSON(w, herr.status, errorBody{herr.msg})
		return
	}
	writeJSON(w, http.StatusOK, forecastResponse{ElapsedMS: time.Since(start).Milliseconds(), forecastResult: res})
	sp.Mark(stEncode)
	s.m.observeStages(&sp)
	s.m.latForecast.ObserveDuration(sp.Total())
}

// handleBatch scores many queries in one round trip with weighted
// admission: a batch of k queries charges min(k, -max-inflight) slots —
// not the single slot of a /forecast call — so -max-inflight bounds
// concurrent forecast work rather than concurrent requests, and a burst of
// large batches sheds load exactly like the same burst of single calls.
// The charge is one atomic all-or-nothing claim after parsing (503 when
// the remaining capacity cannot cover it; the cap keeps a full batch
// admissible on an idle server; parsing itself is cheap and body-bounded,
// so it runs unadmitted — holding a partial claim across the parse would
// let two concurrent batches starve each other into mutual 503s). The
// handler snapshots the active artifact set once (every query in a batch
// sees one generation, even across a concurrent hot swap) and fans the
// queries across cores through internal/parallel. Per-query failures land
// inline so one bad query cannot void its siblings.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.m.reqBatch.Inc()
	t0 := time.Now()
	var req struct {
		Queries []batchQuery `json:"queries"`
	}
	// Bound the body before decoding — the decoder must not buffer an
	// arbitrarily large request first. The cap scales with -batch-max
	// (512 bytes per query is several times a fully specified one).
	r.Body = http.MaxBytesReader(w, r.Body, 4096+int64(s.batchMax)*512)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.m.errBatch.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{fmt.Sprintf("bad request body: %v", err)})
		return
	}
	if len(req.Queries) == 0 {
		s.m.errBatch.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{"empty batch: pass at least one query"})
		return
	}
	if len(req.Queries) > s.batchMax {
		s.m.errBatch.Inc()
		writeJSON(w, http.StatusBadRequest, errorBody{
			fmt.Sprintf("batch of %d exceeds the %d-query limit", len(req.Queries), s.batchMax)})
		return
	}
	s.m.batchQueries.Add(uint64(len(req.Queries)))
	// Admission is the slot claim alone; reading and parsing the body
	// count toward the request, not this stage.
	a0 := time.Now()
	cost := len(req.Queries)
	if max := s.sem.Cap(); cost > max {
		cost = max
	}
	if !s.sem.TryAcquireN(cost) {
		s.m.shedBatch.Inc()
		markShed(w, "capacity")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{
			fmt.Sprintf("server at capacity: batch of %d needs %d of %d slots, retry later",
				len(req.Queries), cost, s.sem.Cap())})
		return
	}
	defer s.sem.ReleaseN(cost)
	s.m.stageAdmission.ObserveDuration(time.Since(a0))
	if s.testHookForecast != nil {
		s.testHookForecast()
	}

	start := time.Now()
	set := s.active.Load()
	workers := cost
	if n := runtime.GOMAXPROCS(0); workers > n {
		workers = n
	}
	results, _ := parallel.Map(workers, req.Queries, func(i int, q batchQuery) (batchEntry, error) {
		// Each query gets its own span: lookup/predict/rank decompose per
		// forecast, not per HTTP request.
		qsp := obs.StartSpan()
		res, herr := s.evaluate(set, q.normalize(), &qsp)
		if herr != nil {
			s.m.errBatch.Inc()
			return batchEntry{Error: herr.msg, Status: herr.status}, nil
		}
		s.m.stageLookup.ObserveDuration(qsp.Stage(stLookup))
		s.m.stagePredict.ObserveDuration(qsp.Stage(stPredict))
		s.m.stageRank.ObserveDuration(qsp.Stage(stRank))
		return batchEntry{forecastResult: res}, nil
	})
	enc0 := time.Now()
	writeJSON(w, http.StatusOK, batchResponse{ElapsedMS: time.Since(start).Milliseconds(), Results: results})
	s.m.stageEncode.ObserveDuration(time.Since(enc0))
	s.m.latBatch.ObserveDuration(time.Since(t0))
}

// selectArtifact resolves the query's model/target/h/w selectors to
// exactly one artifact of the set snapshot.
func selectArtifact(set *artifactSet, fq forecastQuery) (forecast.Trained, *httpError) {
	if fq.target != "" && fq.target != "hot" && fq.target != "become" {
		return nil, failf(http.StatusBadRequest, "unknown target %q (hot | become)", fq.target)
	}
	h, err := intOrDefault(fq.h, "h", 0)
	if err != nil {
		return nil, failf(http.StatusBadRequest, "%v", err)
	}
	w, err := intOrDefault(fq.w, "w", 0)
	if err != nil {
		return nil, failf(http.StatusBadRequest, "%v", err)
	}
	var matches []forecast.Trained
	for _, sm := range set.models {
		tr := sm.tr
		if fq.model != "" && fq.model != tr.ModelName() {
			continue
		}
		if fq.target == "hot" && tr.Target() != forecast.BeHot {
			continue
		}
		if fq.target == "become" && tr.Target() != forecast.BecomeHot {
			continue
		}
		if fq.h != "" && h != tr.Horizon() {
			continue
		}
		if fq.w != "" && w != tr.Window() {
			continue
		}
		matches = append(matches, tr)
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return nil, failf(http.StatusNotFound, "no artifact matches the request; /healthz lists the loaded models")
	default:
		ids := make([]string, len(matches))
		for i, tr := range matches {
			ids[i] = artifactID(tr)
		}
		return nil, failf(http.StatusBadRequest, "ambiguous request matches %s; add model/target/h/w selectors", strings.Join(ids, ", "))
	}
}

func intOrDefault(raw, key string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", key, raw)
	}
	return v, nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

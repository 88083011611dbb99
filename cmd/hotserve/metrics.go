package main

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/forecast"
	"repro/internal/obs"
)

// serverMetrics holds every server-scoped series, pre-registered at
// construction on a per-server obs.Registry (not the process-wide one:
// tests build several servers in one process, and lifetime request counts
// must not bleed across them). GET /metrics renders this registry
// concatenated with obs.Default(), so one scrape covers both the serving
// layer and the library layers beneath it.
//
// Request-path contract: handlers touch only these pre-registered
// pointers — single atomic ops, no lookups, no labels rendered per
// request.
type serverMetrics struct {
	registry *obs.Registry

	reqForecast, reqBatch, reqHealthz, reqReload *obs.Counter
	errForecast, errBatch                        *obs.Counter
	shedForecast, shedBatch                      *obs.Counter

	// forecasts counts successful forecast evaluations — one per single
	// call, one per batch query that succeeded. bench/hotperf cross-checks
	// this against its client-side count.
	forecasts    *obs.Counter
	batchQueries *obs.Counter
	reloads      *obs.Counter

	latForecast, latBatch *obs.Histogram

	stageAdmission, stageLookup, stagePredict, stageRank, stageEncode *obs.Histogram
}

// Span stage indices for the request decomposition. The library layers
// time their own finer stages (mltree_quantize/descend, forecast_feature_
// fetch) on the process registry; these five add up to a request.
const (
	stAdmission = iota
	stLookup
	stPredict
	stRank
	stEncode
)

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{registry: reg}
	route := func(r string) obs.Label { return obs.Label{Key: "route", Value: r} }
	stage := func(s string) obs.Label { return obs.Label{Key: "stage", Value: s} }

	const reqHelp = "HTTP requests received"
	m.reqForecast = reg.Counter("hotserve_requests_total", reqHelp, route("/forecast"))
	m.reqBatch = reg.Counter("hotserve_requests_total", reqHelp, route("/forecast/batch"))
	m.reqHealthz = reg.Counter("hotserve_requests_total", reqHelp, route("/healthz"))
	m.reqReload = reg.Counter("hotserve_requests_total", reqHelp, route("/reload"))

	const errHelp = "requests answered with an error status (sheds counted separately)"
	m.errForecast = reg.Counter("hotserve_errors_total", errHelp, route("/forecast"))
	m.errBatch = reg.Counter("hotserve_errors_total", errHelp, route("/forecast/batch"))

	const shedHelp = "requests shed with 503 by admission control"
	m.shedForecast = reg.Counter("hotserve_sheds_total", shedHelp, route("/forecast"))
	m.shedBatch = reg.Counter("hotserve_sheds_total", shedHelp, route("/forecast/batch"))

	m.forecasts = reg.Counter("hotserve_forecasts_total",
		"successful forecast evaluations (single calls and batch queries)")
	m.batchQueries = reg.Counter("hotserve_batch_queries_total",
		"queries received inside /forecast/batch requests")
	m.reloads = reg.Counter("hotserve_reloads_total",
		"artifact-set hot swaps (watch ticks and POST /reload)")

	const latHelp = "end-to-end request latency"
	m.latForecast = reg.Histogram("hotserve_request_seconds", latHelp, obs.LatencyBuckets, route("/forecast"))
	m.latBatch = reg.Histogram("hotserve_request_seconds", latHelp, obs.LatencyBuckets, route("/forecast/batch"))

	const stageHelp = "per-stage request latency decomposition"
	m.stageAdmission = reg.Histogram("hotserve_stage_seconds", stageHelp, obs.MicroLatencyBuckets, stage("admission"))
	m.stageLookup = reg.Histogram("hotserve_stage_seconds", stageHelp, obs.MicroLatencyBuckets, stage("lookup"))
	m.stagePredict = reg.Histogram("hotserve_stage_seconds", stageHelp, obs.MicroLatencyBuckets, stage("predict"))
	m.stageRank = reg.Histogram("hotserve_stage_seconds", stageHelp, obs.MicroLatencyBuckets, stage("rank"))
	m.stageEncode = reg.Histogram("hotserve_stage_seconds", stageHelp, obs.MicroLatencyBuckets, stage("encode"))
	return m
}

// observeStages folds a completed request span into the stage histograms.
func (m *serverMetrics) observeStages(sp *obs.Span) {
	m.stageAdmission.ObserveDuration(sp.Stage(stAdmission))
	m.stageLookup.ObserveDuration(sp.Stage(stLookup))
	m.stagePredict.ObserveDuration(sp.Stage(stPredict))
	m.stageRank.ObserveDuration(sp.Stage(stRank))
	m.stageEncode.ObserveDuration(sp.Stage(stEncode))
}

// registerInventory exports the active artifact set as scrape-time gauges:
// the aggregate engine vitals /healthz reports, plus one labeled sample
// per served artifact for its identity, mmap residency and (classifiers)
// the feature columns a forecast reads. The functions snapshot s.active
// at scrape time, so the series track hot swaps with no bookkeeping on
// the reload path.
func (s *server) registerInventory() {
	reg := s.m.registry
	sum := func() inventorySummary { return summarize(s.active.Load()) }
	reg.GaugeFunc("hotserve_models", "artifacts in the active serving set",
		func() float64 { return float64(len(sum().infos)) })
	reg.GaugeFunc("hotserve_flattened_models", "active artifacts serving through the flat batch engine",
		func() float64 { return float64(sum().flattened) })
	reg.GaugeFunc("hotserve_mmap_models", "active artifacts serving off memory-mapped files",
		func() float64 { return float64(sum().mapped) })
	reg.GaugeFunc("hotserve_flat_bytes", "flat-engine in-memory footprint across active artifacts",
		func() float64 { return float64(sum().flatBytes) })
	reg.GaugeFunc("hotserve_mmap_bytes", "artifact bytes served from memory-mapped files",
		func() float64 { return float64(sum().mmapBytes) })
	reg.GaugeFunc("hotserve_heap_flat_bytes", "flat footprint of heap-resident artifacts",
		func() float64 { return float64(sum().heapBytes) })
	reg.GaugeFunc("hotserve_degraded_tasks",
		"tasks whose newest version failed verification (serving carried-forward or fallback artifacts)",
		func() float64 {
			set := s.active.Load()
			if set == nil {
				return 0
			}
			return float64(len(set.degraded))
		})
	reg.GaugeSet("hotserve_artifact_mmap_bytes",
		"per-artifact mmap-backed bytes (0 = heap-resident)", func() []obs.LabeledValue {
			set := s.active.Load()
			if set == nil {
				return nil
			}
			out := make([]obs.LabeledValue, 0, len(set.models))
			for _, sm := range set.models {
				var mb int64
				if cm, ok := sm.tr.(classifierModel); ok {
					mb = cm.MmapBytes()
				}
				out = append(out, obs.LabeledValue{Labels: artifactLabels(sm), Value: float64(mb)})
			}
			return out
		})
	reg.GaugeSet("hotserve_artifact_features_read",
		"per-artifact feature columns a forecast builds (classifiers only)", func() []obs.LabeledValue {
			set := s.active.Load()
			if set == nil {
				return nil
			}
			var out []obs.LabeledValue
			for _, sm := range set.models {
				if cm, ok := sm.tr.(classifierModel); ok {
					out = append(out, obs.LabeledValue{Labels: artifactLabels(sm), Value: float64(cm.FeaturesRead())})
				}
			}
			return out
		})
	reg.GaugeSet("hotserve_artifact_info",
		"one sample per served artifact, labeled with its task and registry version", func() []obs.LabeledValue {
			set := s.active.Load()
			if set == nil {
				return nil
			}
			out := make([]obs.LabeledValue, 0, len(set.models))
			for _, sm := range set.models {
				out = append(out, obs.LabeledValue{Labels: artifactLabels(sm), Value: 1})
			}
			return out
		})
}

// artifactLabels renders one served artifact's identity label set.
func artifactLabels(sm servedModel) []obs.Label {
	ls := []obs.Label{
		{Key: "model", Value: sm.tr.ModelName()},
		{Key: "target", Value: sm.tr.Target().String()},
		{Key: "h", Value: strconv.Itoa(sm.tr.Horizon())},
		{Key: "w", Value: strconv.Itoa(sm.tr.Window())},
	}
	if sm.version > 0 {
		ls = append(ls, obs.Label{Key: "version", Value: strconv.Itoa(sm.version)})
	}
	return ls
}

// inventorySummary is the aggregate view of one artifact set — the single
// source both /healthz's inference block and the hotserve_* gauges read.
type inventorySummary struct {
	infos                           []modelInfo
	flattened, mapped               int
	flatBytes, mmapBytes, heapBytes int64
}

// summarize walks one artifact-set snapshot. Tolerates nil (a scrape
// before the inventory is attached).
func summarize(set *artifactSet) inventorySummary {
	var sum inventorySummary
	if set == nil {
		return sum
	}
	sum.infos = make([]modelInfo, len(set.models))
	for i, sm := range set.models {
		sum.infos[i] = modelInfo{Model: sm.tr.ModelName(), Target: sm.tr.Target().String(),
			H: sm.tr.Horizon(), W: sm.tr.Window(), Cutoff: sm.tr.Cutoff(), Version: sm.version}
		fb := int64(0)
		if fm, ok := sm.tr.(forecast.FlatModel); ok && fm.FlatBytes() > 0 {
			sum.flattened++
			fb = fm.FlatBytes()
			sum.flatBytes += fb
		}
		if cm, ok := sm.tr.(classifierModel); ok {
			sum.infos[i].MmapBytes = cm.MmapBytes()
			sum.infos[i].FeaturesRead = cm.FeaturesRead()
			sum.infos[i].Width = cm.FeatureWidth()
			if cm.MmapBytes() > 0 {
				sum.mapped++
				sum.mmapBytes += cm.MmapBytes()
			} else {
				sum.heapBytes += fb
			}
		}
	}
	return sum
}

// enablePprof mounts net/http/pprof on the serving mux (-pprof). Off by
// default: the profiling surface is a debugging tool, not part of the
// serving API.
func (s *server) enablePprof() {
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// accessRecorder wraps a ResponseWriter to capture the status (and any
// shed reason a handler sets) for the access log.
type accessRecorder struct {
	http.ResponseWriter
	status int
	shed   string
}

func (a *accessRecorder) WriteHeader(code int) {
	a.status = code
	a.ResponseWriter.WriteHeader(code)
}

// markShed records why a request was shed, so the access line can say
// "shed=capacity" instead of leaving a bare 503. No-op when the access
// log is off (the writer is not wrapped then).
func markShed(w http.ResponseWriter, reason string) {
	if rec, ok := w.(*accessRecorder); ok {
		rec.shed = reason
	}
}

// logAccess emits one structured key=value line per request:
// id, method, route, status, duration and shed reason.
func (s *server) logAccess(id uint64, r *http.Request, rec *accessRecorder, d time.Duration) {
	shed := rec.shed
	if shed == "" {
		shed = "-"
	}
	fmt.Fprintf(s.accessOut, "access id=%d method=%s route=%s status=%d dur_ms=%.3f shed=%s\n",
		id, r.Method, r.URL.Path, rec.status, float64(d.Nanoseconds())/1e6, shed)
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/obs"
)

// Workload shapes.
const (
	hotK        = 10  // serve-hot and serve-reload rank the top 10
	historyK    = 30  // serve-history asks for the top 30
	batchSize   = 8   // queries per serve-history batch
	historyDays = 42  // serve-history looks back d = 0..41 days
	zipfS       = 1.2 // skew of the look-back distribution
	warmGets    = 400 // untimed GETs before a GET workload's phases
	warmBatches = 12  // untimed batches before serve-history's phase; they fill the feature cache
	replayN     = 32  // queries the traced run replays in-process
	servers     = 3   // server processes per pass
)

// Latency limit and backlog allowance for slo_rps.
const (
	sloP99Ms   = 10
	sloBacklog = 0.01
)

// phaseSpec is one phase of a serving workload's plan.
type phaseSpec struct {
	name   string
	rate   float64 // open-loop requests/s; 0 for a closed loop
	share  float64 // share of the run's seconds, split evenly over the servers
	reload bool    // one train → publish → POST /reload cycle runs mid-phase
}

// plans lists each serving workload's phases.
var plans = map[string][]phaseSpec{
	// Every ladder step sends the same number of requests, 1080 in a 12 s
	// run, so each step's p99 has ten samples beyond it.
	"serve-hot": {
		{name: "step300", rate: 300, share: 0.3},
		{name: "step600", rate: 600, share: 0.15},
		{name: "step900", rate: 900, share: 0.1},
		{name: "step1200", rate: 1200, share: 0.075},
		{name: "closed", share: 0.375},
	},
	"serve-history": {{name: "closed", share: 1}},
	"serve-reload":  {{name: "open300+reload", rate: 300, share: 1, reload: true}},
}

// primary is the phase p50_ms and rows_per_s read: the closed loop where
// there is one, else the only phase. At 300 req/s the server idles between
// requests, and the median there follows the host's wake-up latency more
// than the server's own work.
func primary(workload string) string {
	for _, sp := range plans[workload] {
		if sp.rate == 0 {
			return sp.name
		}
	}
	return plans[workload][0].name
}

// tailOf is the phase and quantile tail_ms reads: the highest percentile a
// run's samples support with ten beyond it.
func tailOf(workload string) (string, float64) {
	switch workload {
	case "serve-hot":
		return "step300", 0.99
	case "serve-history":
		return "closed", 0.9
	}
	return primary(workload), 0.99
}

// stream is a serving workload's request stream over the fixture.
type stream struct {
	name     string
	o        *options
	fx       *fixture
	k        int
	paths    []string // GET /forecast path per artifact
	hist     []query  // serve-history's query stream
	fits     int      // fits so far; the next one is at day fitDay+fits+1
	versions map[string]int

	mu    sync.Mutex
	saved []savedAnswer // serve-history answers kept for checking
}

// savedAnswer is a served ranking kept for the correctness check.
type savedAnswer struct {
	q       query
	version int
	top     []sectorScore
}

func newStream(name string, o *options, fx *fixture) *stream {
	s := &stream{name: name, o: o, fx: fx, k: hotK}
	for _, m := range models() {
		s.paths = append(s.paths, fmt.Sprintf("/forecast?%s&t=%d&k=%d", selector(m), fx.latest(), hotK))
	}
	if name == "serve-history" {
		s.k = historyK
		zipf := rand.NewZipf(rand.New(rand.NewPCG(o.seed, 2)), zipfS, 1, historyDays-1)
		s.hist = make([]query, 1<<15)
		for i := range s.hist {
			s.hist[i] = query{model: models()[i%len(fixtureSpecs)], t: fx.latest() - int(zipf.Uint64()), k: historyK}
		}
	}
	return s
}

// queries returns the first n queries of the stream, for the replay.
func (s *stream) queries(n int) []query {
	if s.hist != nil {
		return s.hist[:n]
	}
	out := make([]query, n)
	for i := range out {
		out[i] = query{model: models()[i%len(fixtureSpecs)], t: s.fx.latest(), k: hotK}
	}
	return out
}

// op returns the stream's request issuer: GET /forecast, artifacts
// round-robin, or serve-history's batches.
func (s *stream) op(c *client) op {
	if s.hist != nil {
		return s.batch(c)
	}
	return func(i int) outcome {
		status, err := c.call("GET", s.paths[i%len(s.paths)], nil, nil)
		oc := outcome{route: "/forecast", status: status, queries: 1}
		if status == 200 && err == nil {
			oc.forecasts = 1
		}
		return oc
	}
}

// batchResponse is the part of a /forecast/batch answer hotperf reads.
type batchResponse struct {
	Results []struct {
		Error string        `json:"error"`
		Top   []sectorScore `json:"top"`
	} `json:"results"`
}

// batch issues POST /forecast/batch for request i: queries 8i..8i+7 of
// the history stream. Every 100th query's answer is kept for checking.
func (s *stream) batch(c *client) op {
	type bq struct {
		Model  string `json:"model"`
		Target string `json:"target"`
		H      int    `json:"h"`
		W      int    `json:"w"`
		T      int    `json:"t"`
		K      int    `json:"k"`
	}
	return func(i int) outcome {
		var req struct {
			Queries []bq `json:"queries"`
		}
		qs := make([]query, batchSize)
		for j := range qs {
			qs[j] = s.hist[(i*batchSize+j)%len(s.hist)]
			target := "hot"
			if qs[j].model == string(core.GBTF1) {
				target = "become"
			}
			req.Queries = append(req.Queries, bq{Model: qs[j].model, Target: target, H: horizon, W: window, T: qs[j].t, K: qs[j].k})
		}
		body, _ := json.Marshal(req)
		var br batchResponse
		status, err := c.call("POST", "/forecast/batch", body, &br)
		oc := outcome{route: "/forecast/batch", status: status, queries: batchSize}
		if status != 200 || err != nil || len(br.Results) != batchSize {
			return oc
		}
		for j, r := range br.Results {
			if r.Error == "" {
				oc.forecasts++
			}
			if (i*batchSize+j)%100 == 0 {
				s.mu.Lock()
				s.saved = append(s.saved, savedAnswer{q: qs[j], version: s.versions[qs[j].model], top: r.Top})
				s.mu.Unlock()
			}
		}
		return oc
	}
}

// passStats is one pass of a serving workload over its servers.
type passStats struct {
	setups, p50s, rows, rss []float64         // one per server
	cpuRows                 []float64         // sector-rows per server CPU-second, one per server
	phases                  map[string]*phase // each phase merged over the servers
	client                  *phase            // every measured request: the ledger's client side
	delta                   obs.Scrape        // server series gained during the measured phases, summed
	gc                      gcStats
	sem                     []float64 // admission-semaphore samples
	fits, reloads           []float64 // fit seconds and POST /reload round trips in ms
}

func newPassStats() *passStats {
	return &passStats{phases: map[string]*phase{}, client: newPhase("measured"), delta: obs.Scrape{}}
}

// serve runs the workload's plan on three servers in turn, never two at
// once. Each starts cold (its start-up time is a set-up sample), is warmed,
// and serves a third of every phase with the same request stream; the run
// reads medians across the three, so one process's luck (memory layout,
// page faults) cannot set its numbers. In a traced run each server then
// runs its share of the plan again with tracing, into the second result.
func (s *stream) serve(ctx context.Context, extra []string, res *result, out io.Writer) (plain, traced *passStats, err error) {
	bin, err := s.o.serverBinary(ctx)
	if err != nil {
		return nil, nil, err
	}
	plain = newPassStats()
	if s.o.trace {
		traced = newPassStats()
	}
	exp := rand.New(rand.NewPCG(s.o.seed, 1)).ExpFloat64
	scheds := map[string][]time.Duration{}
	for _, sp := range plans[s.name] {
		if sp.rate > 0 {
			scheds[sp.name] = poisson(exp, sp.rate, s.segmentLen(sp))
		}
	}
	for i := 0; i < servers; i++ {
		// Collect hotperf's own garbage (training matrices, the previous
		// round) first, so its collector does not run during the phases.
		runtime.GC()
		srv, took, err := startServer(ctx, s.o, bin, s.fx, extra, s.o.trace)
		if err != nil {
			return nil, nil, err
		}
		plain.setups = append(plain.setups, took.Seconds())
		err = s.round(ctx, srv, res, plain, traced, scheds, i, out)
		srv.stop()
		if err != nil {
			return nil, nil, err
		}
	}
	for _, ps := range []*passStats{plain, traced} {
		if ps == nil {
			continue
		}
		ps.client.sort()
		for _, p := range ps.phases {
			p.sort()
		}
	}
	return plain, traced, nil
}

// segmentLen is one server's share of a phase.
func (s *stream) segmentLen(sp phaseSpec) time.Duration {
	return time.Duration(float64(s.o.seconds) * sp.share / servers * float64(time.Second))
}

// round drives one server: warm-up, its share of the plan, and in a traced
// run the same share again with tracing. The last server also answers the
// correctness checks and, in a traced run of a workload that does not
// reload on its own, one timed reload.
func (s *stream) round(ctx context.Context, srv *server, res *result, plain, traced *passStats, scheds map[string][]time.Duration, i int, out io.Writer) error {
	h, err := srv.c.health()
	if err != nil {
		return err
	}
	s.versions = map[string]int{}
	for _, m := range models() {
		if s.versions[m], err = h.version(m); err != nil {
			return err
		}
	}
	if len(res.Provenance.Artifacts) == 0 {
		for _, m := range h.Models {
			res.Provenance.Artifacts = append(res.Provenance.Artifacts,
				artifactInfo{Model: m.Model, Target: m.Target, Version: m.Version, Descent: m.Descent, MmapBytes: m.MmapBytes})
		}
	}
	ss := &serverRun{ctx: ctx, srv: srv, res: res, out: out, prefix: fmt.Sprintf("s%d/", i+1)}
	if ss.last, err = srv.c.scrape(); err != nil {
		return err
	}
	do := s.op(srv.c)
	warm := warmGets
	if s.hist != nil {
		warm = warmBatches
	}
	if _, err := ss.run("warmup", func(n string, first int) (*phase, error) {
		return closedLoop(ctx, n, 0, warm, first, do), nil
	}); err != nil {
		return err
	}
	if err := s.measurePlan(ss, plain, scheds, false); err != nil {
		return err
	}
	if traced != nil {
		ss.prefix = "traced/" + ss.prefix
		if err := s.measurePlan(ss, traced, scheds, true); err != nil {
			return err
		}
	}
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return err
	}
	plain.rss = append(plain.rss, rss)
	if i < servers-1 {
		return nil
	}
	if traced != nil && !plans[s.name][0].reload {
		if err := s.reloadProbe(srv, traced); err != nil {
			return err
		}
	}
	res.fail(checkAnswers(srv.c, s.fx, s.k))
	return nil
}

// measurePlan runs every phase of the plan once on the server's run,
// folding the requests, the server's CPU time and its metric deltas into
// ps. With traced set it also samples the admission semaphore and reads
// the server's GC trace.
func (s *stream) measurePlan(ss *serverRun, ps *passStats, scheds map[string][]time.Duration, traced bool) error {
	srv := ss.srv
	before := ss.last
	gcOff := srv.stderrSize()
	var smp *sampler
	if traced {
		smp = startSampler(srv.c, "parallel_semaphore_in_use", 250*time.Millisecond)
	}
	for _, sp := range plans[s.name] {
		cpu0, err := srv.cpuTime()
		if err != nil {
			return err
		}
		p, err := ss.run(sp.name, func(n string, first int) (*phase, error) {
			return s.runPhase(ss.ctx, srv.c, sp, n, first, scheds[sp.name], ps)
		})
		if err != nil {
			if smp != nil {
				smp.finish()
			}
			return err
		}
		if ps.phases[sp.name] == nil {
			ps.phases[sp.name] = newPhase(sp.name)
		}
		ps.phases[sp.name].merge(p)
		ps.client.merge(p)
		if sp.name == primary(s.name) {
			cpu1, err := srv.cpuTime()
			if err != nil {
				return err
			}
			rows := float64(p.forecasts) * float64(s.fx.p.Sectors())
			ps.p50s = append(ps.p50s, quantile(p.lats, 0.5))
			ps.rows = append(ps.rows, rows/p.elapsed.Seconds())
			ps.cpuRows = append(ps.cpuRows, rows/(cpu1-cpu0).Seconds())
		}
	}
	if smp != nil {
		ps.sem = append(ps.sem, smp.finish()...)
	}
	for k, v := range ss.last {
		ps.delta[k] += v - before[k]
	}
	if traced {
		gc, err := srv.gcSince(gcOff)
		if err != nil {
			return err
		}
		ps.gc.cycles += gc.cycles
		ps.gc.pauseMs += gc.pauseMs
	}
	if s.hist != nil {
		ss.res.fail(s.checkSaved())
	}
	return nil
}

// runPhase runs one server's segment of a phase. In a reload phase one
// train → publish → POST /reload cycle runs beside the GETs, starting
// halfway through.
func (s *stream) runPhase(ctx context.Context, c *client, sp phaseSpec, name string, first int, sched []time.Duration, ps *passStats) (*phase, error) {
	dur := s.segmentLen(sp)
	do := s.op(c)
	switch {
	case sp.rate == 0:
		return closedLoop(ctx, name, dur, 0, first, do), nil
	case !sp.reload:
		return openLoop(ctx, name, sched, dur, first, do), nil
	}
	var fit, rt float64
	var got int64
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		select {
		case <-time.After(dur / 2):
			fit, rt, got, err = s.reloadCycle(c, core.RFF1)
		case <-ctx.Done():
		}
	}()
	p := openLoop(ctx, name, sched, dur, first, do)
	<-done
	p.responses["/reload"] += got
	if err != nil {
		return nil, err
	}
	ps.fits = append(ps.fits, fit)
	ps.reloads = append(ps.reloads, rt)
	return p, nil
}

// serverRun runs one server's phases: each between two scrapes, audited
// against hotperf's own counts and recorded.
type serverRun struct {
	ctx    context.Context
	srv    *server
	res    *result
	out    io.Writer
	prefix string // names the server (and the traced pass) in phase names
	last   obs.Scrape
	next   int // index of the stream's next request
}

func (ss *serverRun) run(name string, fn func(name string, first int) (*phase, error)) (*phase, error) {
	p, err := fn(ss.prefix+name, ss.next)
	if err != nil {
		return nil, err
	}
	ss.next += int(p.sent)
	after, err := ss.srv.c.scrape()
	if err != nil {
		return nil, err
	}
	ss.res.addPhase(p)
	ss.res.fail(audit(p, ss.last, after))
	ss.last = after
	fmt.Fprintf(ss.out, "%-26s %6.2fs %6d req  p50 %7.3f ms  p90 %7.3f ms  p99 %7.3f ms  lag %.3f ms  backlog %d  ops_attempted %d  ops_failed %d\n",
		p.name, p.elapsed.Seconds(), p.sent, quantile(p.lats, 0.5), quantile(p.lats, 0.9), quantile(p.lats, 0.99),
		p.lagMs(), p.backlog, p.attempted, p.failed)
	return p, ss.ctx.Err()
}

// reloadCycle trains kind at the next fit day with the trained-model cache
// off, publishes it and POSTs /reload. It returns the fit's wall seconds,
// the reload round trip in ms and how many responses the server sent.
func (s *stream) reloadCycle(c *client, kind core.ModelKind) (fit, rt float64, responses int64, err error) {
	s.fits++
	t0 := time.Now()
	art, err := s.fx.p.Train(kind, forecast.BeHot, fitDay+s.fits, horizon, window)
	if err != nil {
		return 0, 0, 0, err
	}
	fit = time.Since(t0).Seconds()
	if _, err := s.fx.p.Publish(art); err != nil {
		return 0, 0, 0, err
	}
	var rr struct {
		Reloaded bool `json:"reloaded"`
	}
	r0 := time.Now()
	status, err := c.call("POST", "/reload", nil, &rr)
	rt = ms(time.Since(r0))
	if status != 0 {
		responses = 1
	}
	if err == nil && (status != 200 || !rr.Reloaded) {
		err = fmt.Errorf("POST /reload answered HTTP %d, reloaded=%t", status, rr.Reloaded)
	}
	return fit, rt, responses, err
}

// reloadProbe times one POST /reload after a fresh Average publish, for
// workloads that do not reload on their own.
func (s *stream) reloadProbe(srv *server, ps *passStats) error {
	before, err := srv.c.scrape()
	if err != nil {
		return err
	}
	_, rt, got, err := s.reloadCycle(srv.c, core.Average)
	if err != nil {
		return err
	}
	after, err := srv.c.scrape()
	if err != nil {
		return err
	}
	if d := counterDelta(before, after, "hotserve_requests_total", obs.Label{Key: "route", Value: "/reload"}); d != got {
		return fmt.Errorf("server counted %d reloads, hotperf sent %d", d, got)
	}
	ps.reloads = append(ps.reloads, rt)
	return nil
}

// checkSaved compares the kept serve-history answers with rankings
// recomputed in-process.
func (s *stream) checkSaved() error {
	s.mu.Lock()
	saved := s.saved
	s.saved = nil
	s.mu.Unlock()
	for _, a := range saved {
		want, err := s.fx.expect(a.q.model, a.version, a.q.t, a.q.k)
		if err != nil {
			return err
		}
		if err := compareRanking(fmt.Sprintf("%s t=%d", a.q.model, a.q.t), a.top, want); err != nil {
			return err
		}
	}
	return nil
}

// checkAnswers asks for one ranking per artifact at the latest day and
// compares it with the in-process recomputation from the artifact version
// /healthz reports.
func checkAnswers(c *client, fx *fixture, k int) error {
	h, err := c.health()
	if err != nil {
		return err
	}
	for _, m := range models() {
		v, err := h.version(m)
		if err != nil {
			return err
		}
		var fr struct {
			Top []sectorScore `json:"top"`
		}
		status, err := c.call("GET", fmt.Sprintf("/forecast?%s&t=%d&k=%d", selector(m), fx.latest(), k), nil, &fr)
		if err != nil {
			return err
		}
		if status != 200 {
			return fmt.Errorf("check of %s answered HTTP %d", m, status)
		}
		want, err := fx.expect(m, v, fx.latest(), k)
		if err != nil {
			return err
		}
		if err := compareRanking(fmt.Sprintf("%s v%d t=%d", m, v, fx.latest()), fr.Top, want); err != nil {
			return err
		}
	}
	return nil
}

// runServing runs serve-hot, serve-history or serve-reload.
func runServing(ctx context.Context, o *options, name string, res *result, tr *tracer, out io.Writer) error {
	d, err := makeDataset(o, o.sectors)
	if err != nil {
		return err
	}
	fx, err := buildFixture(d, o, tr)
	if err != nil {
		return err
	}
	res.Provenance.Sectors = d.p.Sectors()
	res.Provenance.ServerGOMAXPROCS = serverProcs()
	var extra []string
	if name == "serve-history" {
		// Two clients with eight queries each fit the admission budget.
		extra = []string{"-max-inflight", "16"}
	}
	s := newStream(name, o, fx)
	ps, tl, err := s.serve(ctx, extra, res, out)
	if err != nil {
		return err
	}
	res.set("setup_s", "s", median(ps.setups))
	res.set("p50_ms", "ms", median(ps.p50s))
	res.set("rows_per_s", "sector-rows/s", median(ps.rows))
	res.set("rss_mb", "MiB", median(ps.rss))
	res.set("rows_per_cpu_s", "rows/cpu-s", median(ps.cpuRows))
	tp, q := tailOf(name)
	tail := quantile(ps.phases[tp].lats, q)
	res.set("tail_ms", "ms", tail)
	// The same value under its percentile's name: p99_ms, or p90_ms for
	// serve-history.
	res.set(fmt.Sprintf("p%.0f_ms", q*100), "ms", tail)
	workloadExtras(res, name, ps)
	if tl == nil {
		return nil
	}
	res.set("trace_overhead_ms", "ms", median(tl.p50s)-median(ps.p50s))
	serverLayers(res, tl, out)
	empty := obs.Scrape{}
	processLayers(res, empty, tl.delta, scrapedCache(empty, tl.delta), tl.gc, tl.client.forecasts*int64(d.p.Sectors()))
	return tracedReplay(o, fx, tr, s.queries(replayN), res)
}

// workloadExtras records the metrics particular to one workload: serve-hot's
// ladder and slo_rps, serve-reload's fit and reload times.
func workloadExtras(res *result, name string, ps *passStats) {
	switch name {
	case "serve-hot":
		slo := 0.0
		for _, sp := range plans[name] {
			p := ps.phases[sp.name]
			if sp.rate == 0 {
				continue
			}
			p99 := quantile(p.lats, 0.99)
			res.set(sp.name+".p50_ms", "ms", quantile(p.lats, 0.5))
			res.set(sp.name+".p99_ms", "ms", p99)
			res.set(sp.name+".backlog", "count", float64(p.backlog))
			res.set(sp.name+".lag_ms", "ms", p.lagMs())
			if sp.rate == 900 {
				res.set("p99_ms_loaded", "ms", p99)
			}
			if p99 <= sloP99Ms && float64(p.backlog) <= sloBacklog*float64(p.sent) && p.failed == 0 {
				slo = sp.rate
			}
		}
		res.set("slo_rps", "req/s", slo)
	case "serve-reload":
		res.set("fit_s", "s", median(ps.fits))
		res.set("reload_s", "s", median(ps.reloads)/1e3)
	}
}

// tracedReplay replays the stream's first queries in-process, probes the
// remaining layers and derives the span metrics.
func tracedReplay(o *options, fx *fixture, tr *tracer, qs []query, res *result) error {
	if err := fx.replay(tr, qs); err != nil {
		return err
	}
	if err := fx.probeLayers(tr, o.seed); err != nil {
		return err
	}
	spanLayers(res, tr, fx.p.Sectors())
	return nil
}

// serverLayers derives hotserve's per-layer metrics from a traced pass and
// prints the request ledger: the client's mean latency split into the
// server's stages and an explicit unattributed remainder (network, HTTP
// parsing, the client itself). Means are used because means add up and
// medians do not.
func serverLayers(res *result, ps *passStats, out io.Writer) {
	b, a := obs.Scrape{}, ps.delta
	var sum float64
	var n uint64
	var requests, sheds int64
	for _, route := range []string{"/forecast", "/forecast/batch"} {
		l := obs.Label{Key: "route", Value: route}
		s, c := histDelta(b, a, "hotserve_request_seconds", l)
		sum, n = sum+s, n+c
		requests += counterDelta(b, a, "hotserve_requests_total", l)
		sheds += counterDelta(b, a, "hotserve_sheds_total", l)
	}
	reqMs := 0.0
	if n > 0 {
		reqMs = sum / float64(n) * 1e3
	}
	clientMs := mean(ps.client.sendLats)
	res.set("hotserve.request_ms", "ms", reqMs)
	res.set("hotserve.unattributed_ms", "ms", clientMs-reqMs)
	stages := 0.0
	parts := ""
	for _, st := range []string{"admission", "lookup", "predict", "rank", "encode"} {
		v := histMeanMs(b, a, "hotserve_stage_seconds", obs.Label{Key: "stage", Value: st})
		res.set("hotserve."+st+"_ms", "ms", v)
		stages += v
		parts += fmt.Sprintf(" %s %.4f +", st, v)
	}
	shed := 0.0
	if requests > 0 {
		shed = float64(sheds) / float64(requests)
	}
	res.set("hotserve.shed_ratio", "ratio", shed)
	res.set("hotserve.reload_ms", "ms", median(ps.reloads))
	res.set("parallel.semaphore_in_use", "slots", mean(ps.sem))
	// A batch records lookup, predict and rank once per query, in parallel,
	// so only GET requests decompose into a sum.
	if ps.client.responses["/forecast/batch"] == 0 {
		fmt.Fprintf(out, "ledger, mean of %d requests: client %.4f ms =%s server other %.4f + unattributed %.4f\n",
			len(ps.client.sendLats), clientMs, parts, reqMs-stages, clientMs-reqMs)
	}
}

// cacheStats is a cache's activity over a measured window.
type cacheStats struct{ hits, misses, evictions, waits int64 }

// hitRatio is hits over lookups (0 without lookups).
func (c cacheStats) hitRatio() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}

// scrapedCache reads the feature cache's counters from two scrapes.
func scrapedCache(b, a obs.Scrape) cacheStats {
	l := obs.Label{Key: "cache", Value: "features"}
	return cacheStats{
		hits:      counterDelta(b, a, "bytelru_hits_total", l),
		misses:    counterDelta(b, a, "bytelru_misses_total", l),
		evictions: counterDelta(b, a, "bytelru_evictions_total", l),
		waits:     counterDelta(b, a, "bytelru_waits_total", l),
	}
}

// processLayers derives the per-layer metrics of the process doing the
// work (hotserve, or hotperf itself for the sweep) from two scrapes of
// its metrics, its feature-cache activity and its garbage collections.
func processLayers(res *result, b, a obs.Scrape, cache cacheStats, gc gcStats, rows int64) {
	res.set("forecast.feature_fetch_ms", "ms", histMeanMs(b, a, "forecast_feature_fetch_seconds"))
	res.set("forecast.descend_ms", "ms", histMeanMs(b, a, "forecast_descend_seconds"))
	res.set("mltree.descend_ms", "ms", histMeanMs(b, a, "mltree_descend_seconds"))
	res.set("mltree.quantize_ms", "ms", histMeanMs(b, a, "mltree_quantize_seconds"))
	res.set("parallel.tasks", "count", float64(counterDelta(b, a, "parallel_tasks_total")))
	res.set("featcache.hit_ratio", "ratio", cache.hitRatio())
	res.set("featcache.evictions", "count", float64(cache.evictions))
	res.set("featcache.waits", "count", float64(cache.waits))
	res.set("features.matrices_built", "count", float64(cache.misses))
	res.set("core.rows_scored", "sector-rows", float64(rows))
	res.set("go.gc_cycles", "count", float64(gc.cycles))
	res.set("go.gc_pause_ms", "ms", gc.pauseMs)
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// maxConns bounds hotperf's HTTP connections to the server: the load,
// scrapes and checks all share these two.
const maxConns = 2

// serverBinary returns the hotserve binary, first compiling cmd/hotserve
// from the repository's source into .bench_build/bin when o has none.
func (o *options) serverBinary(ctx context.Context) (string, error) {
	if o.bin != "" {
		return o.bin, nil
	}
	bin := filepath.Join(o.repo, ".bench_build", "bin", "hotserve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/hotserve")
	cmd.Dir = o.repo
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building cmd/hotserve: %w", err)
	}
	o.bin = bin
	return bin, nil
}

// server is one running hotserve process.
type server struct {
	cmd     *exec.Cmd
	exited  chan struct{} // closed once Wait returned
	waitErr error
	c       *client
	errPath string // the process's standard error (gctrace lines land here)
}

// startServer execs hotserve on the fixture and returns once /healthz first
// answers 200, with the time from exec to that answer: the server's set-up
// time (dataset load, filter, score chain, registry open, artifact verify
// and mmap). gctrace runs the server with GODEBUG=gctrace=1.
func startServer(ctx context.Context, o *options, bin string, fx *fixture, extra []string, gctrace bool) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	errf, err := os.CreateTemp(o.work, "hotserve-*.err")
	if err != nil {
		return nil, 0, err
	}
	defer errf.Close()
	args := append([]string{"-in", fx.path, "-registry", fx.regDir, "-watch", "0", "-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs()))
	if gctrace {
		cmd.Env = append(cmd.Env, "GODEBUG=gctrace=1")
	}
	cmd.Stderr = errf
	// The kernel kills hotserve if hotperf dies first, so an interrupted
	// benchmark never leaves a server running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting hotserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), c: newClient("http://" + addr), errPath: errf.Name()}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	for {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("hotserve exited during start-up (%v): %s", s.waitErr, s.stderrTail())
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		default:
		}
		if status, err := s.c.call("GET", "/healthz", nil, nil); err == nil && status == http.StatusOK {
			return s, time.Since(t0), nil
		}
		if time.Since(t0) > 2*time.Minute {
			s.stop()
			return nil, 0, fmt.Errorf("hotserve not healthy after 2 minutes: %s", s.stderrTail())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// serverProcs is the GOMAXPROCS hotserve runs with: every CPU, its default,
// set explicitly so the provenance block states it.
func serverProcs() int { return runtime.NumCPU() }

// stop terminates the server (SIGTERM, then SIGKILL after 15 s) and waits
// for it to exit. Safe to call more than once.
func (s *server) stop() {
	if s == nil {
		return
	}
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	}
	s.c.tr.CloseIdleConnections()
}

// peakRSSMiB reads the server's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuTime reads the CPU time (user + system) the server has used so far.
func (s *server) cpuTime() (time.Duration, error) {
	return procCPU(s.cmd.Process.Pid)
}

// procCPU reads a process's CPU time (user + system) from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime and stime the 12th and 13th, in clock ticks of 1/100 s.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// stderrSize is the current length of the server's standard error, the
// offset gcSince counts from.
func (s *server) stderrSize() int64 {
	st, err := os.Stat(s.errPath)
	if err != nil {
		return 0
	}
	return st.Size()
}

// gcLine matches a gctrace line; the first and third clock times are the
// stop-the-world pauses.
var gcLine = regexp.MustCompile(`^gc \d+ @[\d.]+s \d+%: ([\d.]+)\+[\d.]+\+([\d.]+) ms clock`)

// gcStats counts garbage collections and their stop-the-world pause time.
type gcStats struct {
	cycles  int
	pauseMs float64
}

// gcSince parses the gctrace lines the server wrote after offset off.
func (s *server) gcSince(off int64) (gcStats, error) {
	f, err := os.Open(s.errPath)
	if err != nil {
		return gcStats{}, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return gcStats{}, err
	}
	var g gcStats
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		m := gcLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		a, _ := strconv.ParseFloat(m[1], 64)
		c, _ := strconv.ParseFloat(m[2], 64)
		g.cycles++
		g.pauseMs += a + c
	}
	return g, sc.Err()
}

func (s *server) stderrTail() string {
	b, _ := os.ReadFile(s.errPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// client is hotperf's HTTP client: one transport capped at maxConns
// connections, never proxied.
type client struct {
	base string
	tr   *http.Transport
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{Proxy: nil, MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns,
		DisableCompression: true}
	return &client{base: base, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// call sends one request. A 200 body is decoded into into when it is
// non-nil; otherwise the body is drained so the connection is reused.
func (c *client) call(method, path string, body []byte, into any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: bad body: %w", method, path, err)
		}
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

// scrape fetches and parses GET /metrics.
func (c *client) scrape() (obs.Scrape, error) {
	req, err := http.NewRequest("GET", c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return obs.ParseText(string(text))
}

// health is the part of /healthz hotperf reads.
type health struct {
	Status string `json:"status"`
	Models []struct {
		Model     string `json:"model"`
		Target    string `json:"target"`
		Version   int    `json:"version"`
		Descent   string `json:"descent"`
		MmapBytes int64  `json:"mmap_bytes"`
	} `json:"models"`
}

func (c *client) health() (*health, error) {
	var h health
	status, err := c.call("GET", "/healthz", nil, &h)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK || h.Status != "ok" {
		return nil, fmt.Errorf("/healthz: HTTP %d, status %q", status, h.Status)
	}
	return &h, nil
}

// version returns the registry version /healthz reports for model.
func (h *health) version(model string) (int, error) {
	for _, m := range h.Models {
		if m.Model == model {
			return m.Version, nil
		}
	}
	return 0, fmt.Errorf("/healthz lists no %s artifact", model)
}

// outcome is what one request did.
type outcome struct {
	route     string
	status    int // 0 when no response arrived
	queries   int // forecasts the request asked for
	forecasts int // forecasts it answered without error
}

// op issues request i of a workload's stream.
type op func(i int) outcome

// phase is one timed stretch of load and what the client saw.
type phase struct {
	name      string
	elapsed   time.Duration
	sent      int64     // requests sent
	lats      []float64 // ms per request that answered every query, sorted
	sendLats  []float64 // the same requests timed from the actual send, sorted
	attempted int64     // forecasts asked for
	failed    int64     // forecasts not answered: non-200s, sheds, transport and per-query errors
	forecasts int64
	responses map[string]int64 // responses received, per route
	sheds     map[string]int64 // 503s, per route
	lagSum    time.Duration    // summed lateness of open-loop sends against their schedule
	backlog   int              // open-loop requests still unanswered when the schedule ended
}

// record folds one request's outcome into p.
func (p *phase) record(oc outcome, lat, sendLat time.Duration) {
	p.sent++
	p.attempted += int64(oc.queries)
	if oc.status != 0 {
		p.responses[oc.route]++
	}
	if oc.status == http.StatusServiceUnavailable {
		p.sheds[oc.route]++
	}
	if oc.status != http.StatusOK {
		p.failed += int64(oc.queries)
		return
	}
	p.failed += int64(oc.queries - oc.forecasts)
	p.forecasts += int64(oc.forecasts)
	if oc.forecasts == oc.queries {
		p.lats = append(p.lats, ms(lat))
		p.sendLats = append(p.sendLats, ms(sendLat))
	}
}

func newPhase(name string) *phase {
	return &phase{name: name, responses: map[string]int64{}, sheds: map[string]int64{}}
}

// merge adds q's requests to p (workers record into their own phases).
func (p *phase) merge(q *phase) {
	p.lats = append(p.lats, q.lats...)
	p.sendLats = append(p.sendLats, q.sendLats...)
	p.sent += q.sent
	p.attempted += q.attempted
	p.failed += q.failed
	p.forecasts += q.forecasts
	for k, v := range q.responses {
		p.responses[k] += v
	}
	for k, v := range q.sheds {
		p.sheds[k] += v
	}
	p.backlog += q.backlog
	p.lagSum += q.lagSum
}

// sort orders the latency samples, as quantile needs, after merges.
func (p *phase) sort() {
	sort.Float64s(p.lats)
	sort.Float64s(p.sendLats)
}

// lagMs is the mean lateness of the phase's open-loop sends.
func (p *phase) lagMs() float64 {
	if p.sent == 0 {
		return 0
	}
	return ms(p.lagSum) / float64(p.sent)
}

// closedLoop runs maxConns clients back to back, each sending its next
// request when the previous one answers, until dur has passed (dur 0: no
// time limit) or maxOps requests were sent (0: no count limit). Requests
// are numbered from first.
func closedLoop(ctx context.Context, name string, dur time.Duration, maxOps, first int, do op) *phase {
	var next atomic.Int64
	start := time.Now()
	return runWorkers(name, start, func(w *phase) {
		for ctx.Err() == nil && (dur == 0 || time.Since(start) < dur) {
			i := int(next.Add(1) - 1)
			if maxOps > 0 && i >= maxOps {
				return
			}
			sent := time.Now()
			oc := do(first + i)
			lat := time.Since(sent)
			w.record(oc, lat, lat)
		}
	})
}

// openLoop sends request k at start+schedule[k] whatever happened to
// earlier requests: when both connections are busy the request waits, and
// that wait counts in its latency, which runs from its due time. A
// connection that sat idle until the due time is woken by a timer that can
// be a millisecond late; that lateness is the generator's, so such a
// request is timed from its actual send and the lateness is reported by
// lagMs instead.
func openLoop(ctx context.Context, name string, schedule []time.Duration, end time.Duration, first int, do op) *phase {
	var next atomic.Int64
	start := time.Now()
	return runWorkers(name, start, func(w *phase) {
		for ctx.Err() == nil {
			k := int(next.Add(1) - 1)
			if k >= len(schedule) {
				return
			}
			due := start.Add(schedule[k])
			free := time.Now()
			if wait := due.Sub(free); wait > 0 {
				time.Sleep(wait)
			}
			sent := time.Now()
			origin := due
			if free.Before(due) {
				origin = sent
			}
			oc := do(first + k)
			done := time.Now()
			w.record(oc, done.Sub(origin), done.Sub(sent))
			w.lagSum += sent.Sub(due)
			if done.Sub(start) > end {
				w.backlog++
			}
		}
	})
}

// runWorkers runs body on maxConns goroutines, each recording into its own
// phase, and merges them once all have returned.
func runWorkers(name string, start time.Time, body func(w *phase)) *phase {
	parts := make([]*phase, maxConns)
	var wg sync.WaitGroup
	for i := range parts {
		parts[i] = newPhase(name)
		wg.Add(1)
		go func(w *phase) {
			defer wg.Done()
			body(w)
		}(parts[i])
	}
	wg.Wait()
	p := newPhase(name)
	p.elapsed = time.Since(start)
	for _, w := range parts {
		p.merge(w)
	}
	p.sort()
	return p
}

// poisson draws arrival offsets of a Poisson process at rate per second
// over dur.
func poisson(exp func() float64, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += exp() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*1e9))
	}
}

// audit checks the server's counters against hotperf's own count of one
// phase: requests per route, 503 sheds per route and successful forecasts
// must all agree.
func audit(p *phase, before, after obs.Scrape) error {
	routes := map[string]bool{"/forecast": true, "/forecast/batch": true}
	for r := range p.responses {
		routes[r] = true
	}
	for r := range routes {
		l := obs.Label{Key: "route", Value: r}
		if got := counterDelta(before, after, "hotserve_requests_total", l); got != p.responses[r] {
			return fmt.Errorf("%s: server counted %d %s requests, hotperf got %d responses",
				p.name, got, r, p.responses[r])
		}
		if r == "/forecast" || r == "/forecast/batch" {
			if got := counterDelta(before, after, "hotserve_sheds_total", l); got != p.sheds[r] {
				return fmt.Errorf("%s: server counted %d %s sheds, hotperf saw %d",
					p.name, got, r, p.sheds[r])
			}
		}
	}
	if got := counterDelta(before, after, "hotserve_forecasts_total"); got != p.forecasts {
		return fmt.Errorf("%s: server counted %d forecasts, hotperf saw %d", p.name, got, p.forecasts)
	}
	return nil
}

func counterDelta(before, after obs.Scrape, name string, labels ...obs.Label) int64 {
	return int64(after.Counter(name, labels...)) - int64(before.Counter(name, labels...))
}

// histDelta returns the sum and count a histogram series gained between
// two scrapes.
func histDelta(before, after obs.Scrape, name string, labels ...obs.Label) (sum float64, count uint64) {
	a, ok := after.Histogram(name, labels...)
	if !ok {
		return 0, 0
	}
	if b, ok := before.Histogram(name, labels...); ok {
		a = a.Sub(b)
	}
	return a.Sum, a.Count
}

// histMeanMs is the mean observation, in ms, a seconds histogram gained
// between two scrapes (0 when it gained none).
func histMeanMs(before, after obs.Scrape, name string, labels ...obs.Label) float64 {
	sum, n := histDelta(before, after, name, labels...)
	if n == 0 {
		return 0
	}
	return sum / float64(n) * 1e3
}

// sampler polls one gauge from /metrics while a phase runs.
type sampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startSampler(c *client, name string, every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if sc, err := c.scrape(); err == nil {
					v, _ := sc.Value(name)
					s.samples = append(s.samples, v)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *sampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is the nearest-rank q-quantile of sorted samples (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/mltree"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// sweepTs picks three forecast days from the paper's grid: first, middle
// and last.
func sweepTs() []int {
	ts, _, _ := forecast.PaperGrid()
	return []int{ts[0], ts[len(ts)/2], ts[len(ts)-1]}
}

// sweepHs are the sweep's horizons; its window is the fixture's.
var sweepHs = []int{1, 7, 14}

// sweepStats is one pass of sweeps.
type sweepStats struct {
	p50, tail, rowsPerS, recordsPerS float64
	rowsPerCPU                       float64 // sector-rows per CPU-second of this process
	rss                              float64 // median over the sweeps of each one's peak resident set, MiB
	records                          int
	cache                            cacheStats
	models                           cacheStats // the trained-model cache
}

// sweepPass runs one sweep per forecast day, cycling through the three
// days, for as many sweeps as end nearest the run's seconds: another sweep
// starts while half a sweep more would still end before them. The days
// cost about the same, so a run that stops mid-cycle is not skewed.
func sweepPass(ctx context.Context, o *options, d *dataset, res *result, prefix string, out io.Writer) (*sweepStats, error) {
	start := time.Now()
	var st sweepStats
	var times, peaks []float64
	var total, cpu time.Duration
	secs := time.Duration(o.seconds) * time.Second
	ts := sweepTs()
	for n := 0; ; n++ {
		if elapsed := time.Since(start); n > 0 && elapsed+elapsed/time.Duration(2*n) >= secs {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sw, err := sweepOnce(o, d, ts[n%len(ts)], res, prefix, out)
		if err != nil {
			return nil, err
		}
		st.cache.hits += sw.cache.hits
		st.cache.misses += sw.cache.misses
		st.cache.evictions += sw.cache.evictions
		st.cache.waits += sw.cache.waits
		st.models.hits += sw.models.hits
		st.models.misses += sw.models.misses
		st.records += sw.records
		times = append(times, sw.took.Seconds())
		peaks = append(peaks, sw.peak)
		total += sw.took
		cpu += sw.cpu
	}
	st.p50 = median(times) * 1e3
	for _, t := range times {
		st.tail = max(st.tail, t*1e3)
	}
	rows := float64(st.records * d.p.Sectors())
	st.recordsPerS = float64(st.records) / total.Seconds()
	st.rowsPerS = rows / total.Seconds()
	st.rowsPerCPU = rows / cpu.Seconds()
	st.rss = median(peaks)
	return &st, nil
}

// oneSweep is what a single sweep took and emitted.
type oneSweep struct {
	took, cpu time.Duration
	peak      float64 // highest resident set sampled during the sweep, MiB
	records   int
	cache     cacheStats
	models    cacheStats // the trained-model cache
}

// sweepOnce runs every model at forecast day t for each h in sweepHs and
// w = 7, and checks the records. It starts cold: a fresh context (empty
// feature and model caches) and an empty quantization cache. It trains
// with the histogram engine, as the fixture does, so binning and binned
// descent are part of the work.
func sweepOnce(o *options, d *dataset, t int, res *result, prefix string, out io.Writer) (*oneSweep, error) {
	// Collect the previous sweep's caches first, so every sweep starts from
	// the same heap and its peak resident set is its own.
	runtime.GC()
	fc, err := forecast.NewContext(d.p.Dataset.K, d.p.Dataset.Grid.Calendar(), d.p.Scores, o.seed)
	if err != nil {
		return nil, err
	}
	fc.TrainDays, fc.ForestTrees, fc.SplitAlgo = 3, 10, mltree.SplitHist
	sweepModels := append(forecast.AllModels(), forecast.NewGBT())
	cfg := forecast.SweepConfig{Models: sweepModels, Target: forecast.BeHot, Ts: []int{t}, Hs: sweepHs,
		Ws: []int{window}, RandomRepeats: 5, Workers: 2}
	mltree.SetBinCacheBytes(0)
	seen := map[string]bool{}
	var bad error
	cpu0, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	peak := watchRSS()
	t0 := time.Now()
	err = forecast.SweepStream(fc, cfg, func(r forecast.Record) error {
		key := fmt.Sprintf("%s/t=%d/h=%d/w=%d", r.Model, r.T, r.H, r.W)
		if seen[key] || r.T != t || r.W != window || !slices.Contains(sweepHs, r.H) {
			bad = fmt.Errorf("sweep emitted unexpected or repeated record %s", key)
		}
		seen[key] = true
		return nil
	})
	sw := &oneSweep{took: time.Since(t0), peak: peak(), records: len(seen)}
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(os.Getpid())
	if err != nil {
		return nil, err
	}
	sw.cpu = cpu1 - cpu0
	want := len(sweepModels) * len(sweepHs)
	if bad == nil && len(seen) != want {
		bad = fmt.Errorf("sweep at t=%d emitted %d distinct records, want %d", t, len(seen), want)
	}
	res.fail(bad)
	p := newPhase(fmt.Sprintf("%ssweep-t%d", prefix, t))
	p.elapsed, p.attempted = sw.took, int64(want)
	if len(seen) < want {
		p.failed = int64(want - len(seen))
	}
	res.addPhase(p)
	fmt.Fprintf(out, "%-26s %6.2fs  ops_attempted %d  ops_failed %d\n", p.name, sw.took.Seconds(), p.attempted, p.failed)
	cs := fc.FeatureCache().Stats()
	sw.cache = cacheStats{hits: int64(cs.Hits), misses: int64(cs.Misses), evictions: int64(cs.Evictions), waits: int64(cs.Waits)}
	mc := fc.ModelCache().Stats()
	sw.models = cacheStats{hits: int64(mc.Hits), misses: int64(mc.Misses)}
	return sw, nil
}

// watchRSS samples this process's resident set every 20 ms until the
// returned function is called, which returns the highest sample in MiB.
func watchRSS() func() float64 {
	stop, result := make(chan struct{}), make(chan float64)
	go func() {
		peak := 0.0
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				if f := strings.Fields(string(b)); len(f) > 1 {
					pages, _ := strconv.ParseFloat(f[1], 64)
					peak = max(peak, pages*float64(os.Getpagesize())/(1<<20))
				}
			}
			select {
			case <-stop:
				result <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-result
	}
}

// runSweep runs the in-process evaluation sweep. Its traced run also fits
// and publishes the fixture's four artifacts on the sweep's dataset and
// replays queries in-process, for the span metrics (fit, binning, predict,
// ranking, registry) every workload reports. No hotserve runs: the
// hotserve.* metrics exist only for the serving workloads.
func runSweep(ctx context.Context, o *options, res *result, tr *tracer, out io.Writer) error {
	d, err := makeDataset(o, o.sectors/2)
	if err != nil {
		return err
	}
	res.Provenance.Sectors = d.p.Sectors()
	// Set-up time: load the dataset file and prepare the pipeline (filter,
	// score chain, context), three times, the median reported.
	var setups []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		t0 := time.Now()
		ds, err := simnet.LoadFile(d.path)
		if err != nil {
			return err
		}
		if _, err := core.FromDataset(ds, core.Config{Seed: o.seed}); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", "s", median(setups))

	sw, err := sweepPass(ctx, o, d, res, "", out)
	if err != nil {
		return err
	}
	res.set("p50_ms", "ms", sw.p50)
	res.set("tail_ms", "ms", sw.tail)
	res.set("rows_per_s", "sector-rows/s", sw.rowsPerS)
	res.set("records_per_s", "records/s", sw.recordsPerS)
	res.set("rows_per_cpu_s", "rows/cpu-s", sw.rowsPerCPU)
	res.set("rss_mb", "MiB", sw.rss)
	if !o.trace {
		return nil
	}

	before, err := selfScrape()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tw, err := sweepPass(ctx, o, d, res, "traced/", out)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	after, err := selfScrape()
	if err != nil {
		return err
	}
	res.set("trace_overhead_ms", "ms", tw.p50-sw.p50)
	gc := gcStats{cycles: int(m1.NumGC - m0.NumGC), pauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6}
	processLayers(res, before, after, tw.cache, gc, int64(tw.records*d.p.Sectors()))
	res.set("modelcache.hit_ratio", "ratio", tw.models.hitRatio())

	fx, err := buildFixture(d, o, tr)
	if err != nil {
		return err
	}
	return tracedReplay(o, fx, tr, newStream("serve-hot", o, fx).queries(replayN), res)
}

// selfScrape renders and parses this process's own metrics.
func selfScrape() (obs.Scrape, error) {
	var buf bytes.Buffer
	if err := obs.Default().WriteText(&buf); err != nil {
		return nil, err
	}
	return obs.ParseText(buf.String())
}

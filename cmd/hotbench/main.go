// Command hotbench reproduces every table and figure of the paper's
// evaluation in one run and prints an EXPERIMENTS-style report: the
// descriptive analyses (Figs. 1-8, Table II), the forecasting study
// (Figs. 9-14, Sec. V-A temporal stability) and the feature-importance
// maps (Figs. 15-16).
//
// Usage:
//
//	hotbench -scale tiny      # seconds; smoke only
//	hotbench -scale small     # minutes
//	hotbench -scale default   # tens of minutes
//	hotbench -scale full      # paper-sized t grid; hours
//	hotbench -skip-forecast   # descriptive analyses only
//	hotbench -in net.hotd -skip-forecast   # descriptive analyses of a saved dataset
//	hotbench -workers 8       # bound the parallel sweep engine
//	hotbench -cache-mb 512    # feature-matrix cache budget (0 disables)
//	hotbench -csv sweep.csv   # stream the Table III sweep to CSV live
//	hotbench -cpuprofile cpu.pprof -memprofile mem.pprof   # profile the run
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/obs"
	"repro/internal/simnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hotbench: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// section is one report unit: a named experiment that renders to text.
type section struct {
	name string
	f    func() (string, error)
}

// run is the testable entry point: it prepares the environment at the
// requested scale and streams every experiment's report to out.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("hotbench", flag.ContinueOnError)
	var (
		scaleName    = fs.String("scale", "small", "tiny | small | default | full")
		seed         = fs.Uint64("seed", 1, "random seed")
		workers      = fs.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
		cacheMB      = fs.Int("cache-mb", 256, "feature-matrix cache budget in MiB (0 disables caching)")
		in           = fs.String("in", "", "dataset path (hotgen output) to analyse instead of generating one at -scale")
		csvPath      = fs.String("csv", "", "stream the scale's full model sweep to this CSV file as records complete")
		skipForecast = fs.Bool("skip-forecast", false, "run only the descriptive analyses")
		skipImpute   = fs.Bool("skip-impute", false, "skip the Fig 5 autoencoder comparison")
		cpuProfile   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile   = fs.String("memprofile", "", "write a heap profile to this file at exit")
		metricsOut   = fs.String("metrics", "", "write the process metrics exposition to this path at exit (\"-\" = stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metricsOut != "" {
		defer func() {
			if derr := obs.Default().Dump(*metricsOut); derr != nil && err == nil {
				err = fmt.Errorf("metrics dump: %w", derr)
			}
		}()
	}

	// Profiling hooks for perf work on the fit/predict hot path: the CPU
	// profile covers the whole run, the heap profile snapshots live
	// allocations (caches included) after a final GC.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle the heap so the snapshot reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("writing heap profile: %v", err)
			}
			f.Close()
		}()
	}

	var scale experiments.Scale
	switch *scaleName {
	case "tiny":
		scale = experiments.TinyScale()
	case "small":
		scale = experiments.SmallScale()
	case "default":
		scale = experiments.DefaultScale()
	case "full":
		scale = experiments.FullScale()
	default:
		return fmt.Errorf("unknown scale %q", *scaleName)
	}
	scale.Seed = *seed
	scale.Workers = *workers
	scale.CacheBytes = forecast.CacheBytesMB(*cacheMB)

	start := time.Now()
	env, err := prepare(*in, scale)
	if err != nil {
		return err
	}
	effective := scale.Workers
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(out, "prepared %d sectors x %d days (seed %d, %d discarded, %d sweep workers) in %v\n\n",
		env.Ctx.Sectors(), env.Ctx.Days(), *seed, env.Discarded, effective, time.Since(start).Round(time.Millisecond))

	runSection := func(s section) error {
		t0 := time.Now()
		res, err := s.f()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(out, res)
		fmt.Fprintf(out, "[%s took %v]\n\n", s.name, time.Since(t0).Round(time.Millisecond))
		return nil
	}

	descriptive := []section{
		{"Fig 1", func() (string, error) { return experiments.Fig01KPIExamples(env).Format(), nil }},
		{"Fig 2", func() (string, error) { return experiments.Fig02ScoreAndLabel(env).Format(), nil }},
		{"Fig 3", func() (string, error) { return experiments.Fig03LabelRaster(env).Format(), nil }},
		{"Fig 4", func() (string, error) { return experiments.Fig04ScoreHistogram(env).Format(), nil }},
	}
	if !*skipImpute {
		descriptive = append(descriptive, section{"Fig 5", func() (string, error) {
			r, err := experiments.Fig05Imputation(env)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}})
	}
	descriptive = append(descriptive, []section{
		{"Fig 6", func() (string, error) { return experiments.Fig06HotSpotHistograms(env).Format(), nil }},
		{"Fig 7", func() (string, error) { return experiments.Fig07ConsecutiveRuns(env).Format(), nil }},
		{"Table II", func() (string, error) { return experiments.Tab02WeeklyPatterns(env).Format(), nil }},
		{"Fig 8", func() (string, error) { return experiments.Fig08SpatialCorrelation(env).Format(), nil }},
	}...)
	for _, s := range descriptive {
		if err := runSection(s); err != nil {
			return err
		}
	}

	if *csvPath != "" {
		if err := streamCSV(env, *csvPath, out); err != nil {
			return fmt.Errorf("csv sweep: %w", err)
		}
	}

	var hot *experiments.HorizonResult
	forecasting := []section{
		{"Sec V-A", func() (string, error) {
			r, err := experiments.RunStabilityExperiment(env, forecast.BeHot)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{"Figs 9-10", func() (string, error) {
			r, err := experiments.RunHorizonExperiment(env, forecast.BeHot)
			if err != nil {
				return "", err
			}
			hot = r
			return r.Format(), nil
		}},
		{"Figs 11-12", func() (string, error) {
			r, err := experiments.RunHorizonExperiment(env, forecast.BecomeHot)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{"Fig 13", func() (string, error) {
			r, err := experiments.RunWindowExperiment(env, forecast.BeHot)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{"Fig 14", func() (string, error) {
			r, err := experiments.RunWindowExperiment(env, forecast.BecomeHot)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{"Fig 15", func() (string, error) {
			r, err := experiments.RunImportanceExperiment(env, forecast.BeHot)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{"Fig 16", func() (string, error) {
			r, err := experiments.RunImportanceExperiment(env, forecast.BecomeHot)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{"PR curves", func() (string, error) {
			r, err := experiments.RunPRCurves(env, forecast.BeHot)
			if err != nil {
				return "", err
			}
			return r.Format(), nil
		}},
		{"Ablations", func() (string, error) {
			bw, err := experiments.RunAblationBalancedWeights(env)
			if err != nil {
				return "", err
			}
			sp, err := experiments.RunAblationSpatial(env)
			if err != nil {
				return "", err
			}
			return bw.Format() + "\n" + sp.Format() + "\n", nil
		}},
	}
	if !*skipForecast {
		for _, s := range forecasting {
			if err := runSection(s); err != nil {
				return err
			}
		}
		if hot != nil {
			fmt.Fprintf(out, "headline: RF-F1 vs Average on hot spots: %+.0f%% (paper: +14%%)\n",
				hot.MeanDelta("RF-F1", nil))
		}
	}

	// Any sweep activity (forecast sections or the -csv sweep) ran against
	// the shared caches; summarise their effectiveness. Trained-model hits
	// are fits the run never repeated — experiments with overlapping grids
	// (horizon, stability, PR curves) share artifacts through the cache.
	if cache := env.Ctx.FeatureCache(); cache != nil && (!*skipForecast || *csvPath != "") {
		s := cache.Stats()
		fmt.Fprintf(out, "feature cache: %d hits, %d misses, %d evictions, %d matrices / %.1f MiB resident (budget %d MiB)\n",
			s.Hits, s.Misses, s.Evictions, s.Entries, float64(s.Bytes)/(1<<20), s.MaxBytes>>20)
	}
	if cache := env.Ctx.ModelCache(); cache != nil && (!*skipForecast || *csvPath != "") {
		s := cache.Stats()
		fmt.Fprintf(out, "model cache: %d hits, %d misses, %d evictions, %d artifacts / %.1f MiB resident (budget %d MiB)\n",
			s.Hits, s.Misses, s.Evictions, s.Entries, float64(s.Bytes)/(1<<20), s.MaxBytes>>20)
	}
	fmt.Fprintf(out, "total runtime %v\n", time.Since(start).Round(time.Second))
	return nil
}

// prepare builds the experiment environment from the dataset file at path,
// or generates one at the scale when path is empty.
func prepare(path string, scale experiments.Scale) (*experiments.Env, error) {
	if path == "" {
		return experiments.Prepare(scale)
	}
	ds, err := simnet.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return experiments.FromDataset(ds, scale)
}

// streamCSV runs the scale's full Table III model sweep once through the
// streaming engine, writing every record to path the moment its grid point
// completes (so a killed run keeps everything finished so far) and
// printing periodic per-point progress.
func streamCSV(env *experiments.Env, path string, out io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	if err := w.Write(forecast.CSVHeader()); err != nil {
		return err
	}
	cfg := forecast.SweepConfig{
		Models:        forecast.AllModels(),
		Target:        forecast.BeHot,
		Ts:            env.Scale.Ts(),
		Hs:            env.Scale.Hs,
		Ws:            env.Scale.Ws,
		RandomRepeats: env.Scale.RandomRepeats,
		Workers:       env.Scale.Workers,
	}
	total := len(cfg.Ts) * len(cfg.Hs) * len(cfg.Ws) * len(cfg.Models)
	step := total / 20
	if step < 1 {
		step = 1
	}
	n, valid := 0, 0
	start := time.Now()
	err = forecast.SweepStream(env.Ctx, cfg, func(rec forecast.Record) error {
		n++
		if !math.IsNaN(rec.Psi) {
			valid++
		}
		if err := w.Write(rec.CSVRow()); err != nil {
			return err
		}
		w.Flush() // live emission: every record lands on disk as it streams
		if err := w.Error(); err != nil {
			return err
		}
		if n%step == 0 || n == total {
			fmt.Fprintf(out, "csv: %d/%d records (%.0f%%) in %v\n",
				n, total, 100*float64(n)/float64(total), time.Since(start).Round(time.Millisecond))
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "csv: wrote %d records (%d evaluable) to %s in %v\n\n",
		n, valid, path, time.Since(start).Round(time.Millisecond))
	return nil
}

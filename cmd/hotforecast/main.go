// Command hotforecast trains and evaluates hot-spot forecasting models on a
// dataset, printing per-model average precision and lift for the requested
// grid (Sec. V protocol).
//
// Usage:
//
//	hotforecast -sectors 600 -t 60,70 -h 1,7,14 -w 7 -target hot
//	hotforecast -in network.hotd -models Average,RF-F1 -target become
//	hotforecast -workers 8      # bound the parallel sweep engine
//	hotforecast -cache-mb 512   # feature-matrix cache budget (0 disables)
//	hotforecast -csv sweep.csv  # stream records to CSV as they complete
//
// Train-once workflow (see cmd/hotserve for the serving side):
//
//	hotforecast -models RF-F1 -t 60 -h 7 -w 7 -model-out rf.hotm   # fit + save
//	hotforecast -model-in rf.hotm -t 62,64                          # load + predict
//
// -model-out requires exactly one model, one t and one h; -model-in skips
// training entirely and predicts from the artifact at each requested t
// (evaluating against labels when day t+h is inside the grid). Both modes
// need the pipeline built from the same dataset the artifact was trained
// on (same -in file, or same -sectors/-weeks/-seed).
//
// Registry workflow (versioned publishing; see internal/registry):
//
//	hotforecast -models RF-F1 -t 60 -h 7 -w 7 -registry ./models  # fit + publish
//	hotforecast -registry ./models -prune 3                        # keep 3 newest/task
//	hotforecast -registry ./models -prune-max-age 720h             # drop versions >30d old
//	hotforecast -registry ./models -prune-max-bytes 104857600      # fit a 100 MiB budget
//	hotforecast -registry ./models -verify                         # fsck: checksum every artifact
//
// -registry with a model selection trains like -model-out but publishes
// the artifact as the new latest version of its task, which a running
// hotserve -registry picks up on its next reload. -registry with only
// prune criteria garbage-collects: -prune keeps the newest N per task,
// -prune-max-age drops stale versions, -prune-max-bytes evicts oldest
// versions until the registry fits the byte budget; criteria compose, and
// each task's latest version is never dropped.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/forecast"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/simnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hotforecast: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable entry point: it builds the pipeline, sweeps the
// requested grid on the parallel engine and prints the lift table on out.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("hotforecast", flag.ContinueOnError)
	var (
		in       = fs.String("in", "", "dataset path (empty = generate)")
		sectors  = fs.Int("sectors", 600, "sectors when generating")
		weeks    = fs.Int("weeks", 0, "weeks when generating (0 = the paper's 18)")
		seed     = fs.Uint64("seed", 1, "seed")
		tsFlag   = fs.String("t", "60,70,80", "comma-separated forecast days")
		hsFlag   = fs.String("h", "1,7,14", "comma-separated horizons")
		wFlag    = fs.Int("w", 7, "past-window length in days")
		target   = fs.String("target", "hot", "target: hot | become")
		models   = fs.String("models", "", "comma-separated model subset (default: all 8)")
		trees    = fs.Int("trees", 24, "random-forest size")
		workers  = fs.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
		cacheMB  = fs.Int("cache-mb", 256, "feature-matrix cache budget in MiB (0 disables caching)")
		csvPath  = fs.String("csv", "", "also stream sweep records to this CSV file as they complete")
		modelOut = fs.String("model-out", "", "train the single selected model at the single (t, h, w) and write the artifact here (skips the sweep)")
		modelIn  = fs.String("model-in", "", "load a trained artifact and predict at each -t instead of training (skips the sweep)")
		regDir   = fs.String("registry", "", "model-registry directory: train like -model-out but publish as a new version (or just prune)")
		prune    = fs.Int("prune", 0, "with -registry: keep only the newest N versions of every task")
		pruneAge = fs.Duration("prune-max-age", 0, "with -registry: also drop versions published longer than this ago (latest per task always kept)")
		pruneMax = fs.Int64("prune-max-bytes", 0, "with -registry: also drop oldest versions until total artifact bytes fit this budget (latest per task always kept)")
		verify   = fs.Bool("verify", false, "with -registry: fsck every published artifact against its manifest checksum and exit non-zero if any version is corrupt")
		metrics  = fs.String("metrics", "", "write the process metrics exposition to this path at exit (\"-\" = stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metrics != "" {
		defer func() {
			if derr := obs.Default().Dump(*metrics); derr != nil && err == nil {
				err = fmt.Errorf("metrics dump: %w", derr)
			}
		}()
	}

	ts, err := parseInts(*tsFlag)
	if err != nil {
		return fmt.Errorf("bad -t: %w", err)
	}
	hs, err := parseInts(*hsFlag)
	if err != nil {
		return fmt.Errorf("bad -h: %w", err)
	}
	tgt := forecast.BeHot
	if *target == "become" {
		tgt = forecast.BecomeHot
	} else if *target != "hot" {
		return fmt.Errorf("unknown target %q", *target)
	}

	if *modelOut != "" && *modelIn != "" {
		return fmt.Errorf("-model-out and -model-in are mutually exclusive")
	}
	if *regDir != "" && (*modelOut != "" || *modelIn != "") {
		return fmt.Errorf("-registry is mutually exclusive with -model-out/-model-in")
	}
	pruneOpts := registry.PruneOpts{KeepN: *prune, MaxAge: *pruneAge, MaxTotalBytes: *pruneMax}
	wantPrune := pruneOpts != (registry.PruneOpts{})
	if wantPrune && *regDir == "" {
		return fmt.Errorf("-prune/-prune-max-age/-prune-max-bytes need -registry")
	}
	if *prune < 0 || *pruneAge < 0 || *pruneMax < 0 {
		return fmt.Errorf("prune criteria must be non-negative")
	}
	if *verify && (*regDir == "" || *models != "") {
		return fmt.Errorf("-verify is a standalone registry check: pass -registry and no -models")
	}

	// Standalone verify/prune touch only the registry — no pipeline needed.
	if *regDir != "" && *models == "" {
		if !wantPrune && !*verify {
			return fmt.Errorf("-registry without -models publishes nothing: pass -models to train+publish, -verify to fsck, or a prune criterion to prune")
		}
		reg, err := registry.Open(*regDir, -1)
		if err != nil {
			return err
		}
		if *verify {
			if err := verifyRegistry(reg, out); err != nil {
				return err
			}
		}
		if wantPrune {
			dropped, err := reg.PruneWith(pruneOpts)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "pruned %d version(s) from %s (%s)\n",
				len(dropped), *regDir, describePrune(pruneOpts))
		}
		return nil
	}

	p, err := buildPipeline(*in, *sectors, *weeks, *seed, *trees, *cacheMB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "pipeline: %d sectors, %d days (%d discarded)\n", p.Sectors(), p.Days(), p.Discarded)

	if *modelIn != "" {
		return predictFromArtifact(p, *modelIn, ts, out)
	}

	modelSet := forecast.AllModels()
	if *models != "" {
		modelSet = nil
		for _, name := range strings.Split(*models, ",") {
			m, err := core.NewModel(core.ModelKind(strings.TrimSpace(name)))
			if err != nil {
				return err
			}
			modelSet = append(modelSet, m)
		}
	}

	if *modelOut != "" {
		if len(modelSet) != 1 || len(ts) != 1 || len(hs) != 1 {
			return fmt.Errorf("-model-out trains one artifact: pass exactly one -models entry, one -t and one -h (got %d/%d/%d)",
				len(modelSet), len(ts), len(hs))
		}
		return trainToArtifact(p, modelSet[0], tgt, ts[0], hs[0], *wFlag, *modelOut, out)
	}

	if *regDir != "" {
		if len(modelSet) != 1 || len(ts) != 1 || len(hs) != 1 {
			return fmt.Errorf("-registry publishes one artifact: pass exactly one -models entry, one -t and one -h (got %d/%d/%d)",
				len(modelSet), len(ts), len(hs))
		}
		return trainToRegistry(p, modelSet[0], tgt, ts[0], hs[0], *wFlag, *regDir, pruneOpts, out)
	}

	if len(ts)*len(hs) > 1 {
		// Multi-point grids saturate the sweep pool; serialise each forest
		// fit so -workers actually bounds the total parallelism.
		p.Ctx.FitWorkers = 1
	}

	// Stream the sweep: records are collected for the lift table and, when
	// -csv is set, written to disk the moment their grid point completes.
	var emitCSV func(forecast.Record) error
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cw := csv.NewWriter(f)
		if err := cw.Write(forecast.CSVHeader()); err != nil {
			return err
		}
		emitCSV = func(rec forecast.Record) error {
			if err := cw.Write(rec.CSVRow()); err != nil {
				return err
			}
			cw.Flush()
			return cw.Error()
		}
	}
	res := &forecast.Result{}
	err = forecast.SweepStream(p.Ctx, forecast.SweepConfig{
		Models: modelSet, Target: tgt, Ts: ts, Hs: hs, Ws: []int{*wFlag},
		RandomRepeats: 5,
		Workers:       *workers,
	}, func(rec forecast.Record) error {
		res.Records = append(res.Records, rec)
		if emitCSV != nil {
			return emitCSV(rec)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if *csvPath != "" {
		fmt.Fprintf(out, "streamed %d records to %s\n", len(res.Records), *csvPath)
	}

	// Aggregate mean lift per (model, h) over t.
	lifts := res.LiftsByModelH(*wFlag)
	var names []string
	for name := range lifts {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "\n%s forecast, w=%d, lift over random (mean over t=%v):\n", tgt, *wFlag, ts)
	fmt.Fprintf(out, "%-10s", "model")
	for _, h := range hs {
		fmt.Fprintf(out, "   h=%-4d", h)
	}
	fmt.Fprintln(out)
	for _, name := range names {
		fmt.Fprintf(out, "%-10s", name)
		for _, h := range hs {
			fmt.Fprintf(out, "   %-6.2f", mathx.Mean(lifts[name][h]))
		}
		fmt.Fprintln(out)
	}
	return nil
}

// trainToArtifact is the -model-out mode: fit one model at one task and
// write the versioned artifact to disk.
func trainToArtifact(p *core.Pipeline, m forecast.Model, tgt forecast.Target, t, h, w int, path string, out io.Writer) error {
	start := time.Now()
	tr, err := m.Fit(p.Ctx, tgt, t, h, w)
	if err != nil {
		return fmt.Errorf("training %s: %w", m.Name(), err)
	}
	if err := forecast.SaveModel(path, tr); err != nil {
		return err
	}
	data, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trained %s (target %s, t=%d h=%d w=%d, cutoff day %d) in %v\n",
		tr.ModelName(), tr.Target(), t, h, w, tr.Cutoff(), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(out, "wrote %s (%d bytes); serve it with: hotserve -models %s\n", path, data.Size(), path)
	return nil
}

// verifyRegistry is the -verify fsck mode: checksum every published
// artifact against its manifest entry, report each version's verdict, and
// fail (non-zero exit) if anything is corrupt — the offline counterpart of
// the serving layer's quarantine.
func verifyRegistry(reg *registry.Registry, out io.Writer) error {
	results := reg.VerifyAll()
	bad := 0
	for _, res := range results {
		if res.Err != nil {
			bad++
			fmt.Fprintf(out, "CORRUPT version %d (%s, %s): %v\n",
				res.Version.ID, res.Key, res.Version.File, res.Err)
		} else {
			fmt.Fprintf(out, "ok      version %d (%s, %s)\n",
				res.Version.ID, res.Key, res.Version.File)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d of %d version(s) failed verification", bad, len(results))
	}
	fmt.Fprintf(out, "verified %d version(s): all clean\n", len(results))
	return nil
}

// trainToRegistry is the -registry publish mode: fit one model at one task
// and publish it as the new latest version, optionally pruning old
// versions afterwards.
func trainToRegistry(p *core.Pipeline, m forecast.Model, tgt forecast.Target, t, h, w int, dir string, prune registry.PruneOpts, out io.Writer) error {
	reg, err := registry.Open(dir, -1)
	if err != nil {
		return err
	}
	p.AttachRegistry(reg)
	start := time.Now()
	tr, err := m.Fit(p.Ctx, tgt, t, h, w)
	if err != nil {
		return fmt.Errorf("training %s: %w", m.Name(), err)
	}
	v, err := p.Publish(tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trained %s (target %s, t=%d h=%d w=%d, cutoff day %d) in %v\n",
		tr.ModelName(), tr.Target(), t, h, w, tr.Cutoff(), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(out, "published version %d (%s, %d bytes) to %s; serve it with: hotserve -registry %s\n",
		v.ID, v.File, v.SizeBytes, dir, dir)
	if prune != (registry.PruneOpts{}) {
		dropped, err := reg.PruneWith(prune)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "pruned %d version(s) (%s)\n", len(dropped), describePrune(prune))
	}
	return nil
}

// describePrune renders the active GC criteria for operator output.
func describePrune(o registry.PruneOpts) string {
	var parts []string
	if o.KeepN > 0 {
		parts = append(parts, fmt.Sprintf("keeping the newest %d per task", o.KeepN))
	}
	if o.MaxAge > 0 {
		parts = append(parts, fmt.Sprintf("max age %v", o.MaxAge))
	}
	if o.MaxTotalBytes > 0 {
		parts = append(parts, fmt.Sprintf("byte budget %d", o.MaxTotalBytes))
	}
	return strings.Join(parts, ", ")
}

// predictFromArtifact is the -model-in mode: score each requested t from
// the loaded artifact, evaluating against labels where the forecast day is
// inside the grid.
func predictFromArtifact(p *core.Pipeline, path string, ts []int, out io.Writer) error {
	tr, err := forecast.LoadModelFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "loaded %s artifact: target %s, h=%d w=%d, trained at cutoff day %d\n",
		tr.ModelName(), tr.Target(), tr.Horizon(), tr.Window(), tr.Cutoff())
	for _, t := range ts {
		scores, err := p.Predict(tr, t, tr.Window())
		if err != nil {
			return fmt.Errorf("predicting at t=%d: %w", t, err)
		}
		top := core.TopK(scores, 5)
		fmt.Fprintf(out, "t=%d forecast day %d top sectors:", t, t+tr.Horizon())
		for _, i := range top {
			fmt.Fprintf(out, " %d:%.3f", i, scores[i])
		}
		if day := t + tr.Horizon(); day < p.Days() {
			labels := p.Ctx.Labels(tr.Target()).Col(day)
			ap := eval.AveragePrecision(scores, labels)
			fmt.Fprintf(out, "   psi=%.3f lift=%.2f", ap, eval.Lift(ap, eval.Prevalence(labels)))
		} else {
			fmt.Fprintf(out, "   (day %d beyond grid: no labels to evaluate)", day)
		}
		fmt.Fprintln(out)
	}
	return nil
}

func buildPipeline(path string, sectors, weeks int, seed uint64, trees, cacheMB int) (*core.Pipeline, error) {
	cfg := core.Config{Seed: seed, Sectors: sectors, Weeks: weeks, ForestTrees: trees, TrainDays: 4,
		CacheBytes: forecast.CacheBytesMB(cacheMB)}
	if path == "" {
		return core.NewPipeline(cfg)
	}
	ds, err := simnet.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return core.FromDataset(ds, cfg)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

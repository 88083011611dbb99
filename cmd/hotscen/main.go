// Command hotscen runs the adversarial scenario evaluation matrix: every
// selected model through every selected scenario pack, aggregated into a
// per-(model, scenario) metric matrix and written as a JSON artifact.
//
// Usage:
//
//	hotscen -list
//	hotscen -packs baseline,outage-wave -models Random,Average,Tree -o matrix.json
//	hotscen -packs all -diff BENCH_scenarios.json
//
// With -diff, the freshly computed matrix is compared against a committed
// baseline artifact: its schema (packs, models, cell structure) must match,
// and every cell's mean_psi and mean_lift must lie within the band the
// baseline stores. The written matrix carries the baseline's band, so after
// an intended change it can replace the baseline as it stands. CI uses this
// to catch matrix-shape drift and lost forecast quality.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/scenario/evalmatrix"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hotscen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable entry point.
func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("hotscen", flag.ContinueOnError)
	var (
		list      = fs.Bool("list", false, "list built-in scenario packs and exit")
		packsFlag = fs.String("packs", "all", "comma-separated pack names, or \"all\"")
		models    = fs.String("models", "all", "comma-separated model kinds, or \"all\"")
		outPath   = fs.String("o", "", "output path for the matrix artifact (default: stdout)")
		diffPath  = fs.String("diff", "", "baseline artifact to compare the matrix schema and values against")
		sectors   = fs.Int("sectors", 200, "approximate sector count")
		weeks     = fs.Int("weeks", 10, "observation window in weeks")
		seed      = fs.Uint64("seed", 1, "random seed")
		tcount    = fs.Int("t", 2, "number of forecast days sampled from the feasible range")
		hsFlag    = fs.String("hs", "1,5", "comma-separated forecast horizons")
		w         = fs.Int("w", 7, "feature window in days")
		trainDays = fs.Int("train-days", 3, "training days per fit")
		trees     = fs.Int("trees", 4, "forest size")
		repeats   = fs.Int("repeats", 2, "random rankings per grid point (lift denominator)")
		workers   = fs.Int("workers", 0, "sweep parallelism (0 = GOMAXPROCS)")
		metrics   = fs.String("metrics", "", "write the process metrics exposition to this path at exit (\"-\" = stderr)")
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

	if *list {
		for _, p := range scenario.BuiltinPacks() {
			fmt.Fprintf(out, "%-16s %s\n", p.Name, p.Desc)
			for _, ov := range p.Overlays {
				fmt.Fprintf(out, "    overlay %-16s labels: %s\n", ov.Name(), ov.LabelEffect())
			}
		}
		return nil
	}

	packs, err := parsePacks(*packsFlag)
	if err != nil {
		return err
	}
	kinds, err := parseModels(*models)
	if err != nil {
		return err
	}
	hs, err := parseInts(*hsFlag)
	if err != nil {
		return fmt.Errorf("bad -hs: %w", err)
	}

	cfg := evalmatrix.Config{
		Packs:         packs,
		Models:        kinds,
		Sectors:       *sectors,
		Weeks:         *weeks,
		Seed:          *seed,
		TCount:        *tcount,
		Hs:            hs,
		W:             *w,
		TrainDays:     *trainDays,
		ForestTrees:   *trees,
		RandomRepeats: *repeats,
		Workers:       *workers,
	}
	var base *evalmatrix.Matrix
	if *diffPath != "" {
		if base, err = evalmatrix.ReadFile(*diffPath); err != nil {
			return err
		}
	}
	m, err := evalmatrix.Run(cfg)
	if err != nil {
		return err
	}
	if base != nil {
		m.Band = base.Band
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := m.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s: %d packs x %d models (%d cells)\n",
			*outPath, len(m.Packs), len(m.Models), len(m.Cells))
	} else if err := m.WriteJSON(out); err != nil {
		return err
	}

	if base != nil {
		if err := evalmatrix.CompareSchema(m, base); err != nil {
			return fmt.Errorf("schema drift against %s: %w", *diffPath, err)
		}
		fmt.Fprintf(out, "schema matches %s\n", *diffPath)
		if err := evalmatrix.CompareValues(m, base); err != nil {
			return fmt.Errorf("values outside the band of %s:\n%w", *diffPath, err)
		}
		fmt.Fprintf(out, "values within the band of %s\n", *diffPath)
	}
	return nil
}

// parsePacks resolves the -packs selector.
func parsePacks(spec string) ([]scenario.Pack, error) {
	if spec == "all" || spec == "" {
		return scenario.BuiltinPacks(), nil
	}
	var packs []scenario.Pack
	for _, name := range strings.Split(spec, ",") {
		p, err := scenario.PackByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		packs = append(packs, p)
	}
	return packs, nil
}

// parseModels resolves the -models selector against the model-kind names
// of core (e.g. "Random", "RF-F1").
func parseModels(spec string) ([]core.ModelKind, error) {
	if spec == "all" || spec == "" {
		return evalmatrix.AllModelKinds(), nil
	}
	known := map[string]core.ModelKind{}
	for _, k := range evalmatrix.AllModelKinds() {
		known[string(k)] = k
	}
	var kinds []core.ModelKind
	for _, name := range strings.Split(spec, ",") {
		k, ok := known[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown model %q", name)
		}
		kinds = append(kinds, k)
	}
	return kinds, nil
}

// parseInts parses a comma-separated integer list.
func parseInts(spec string) ([]int, error) {
	var out []int
	for _, s := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Command hotgen generates a synthetic cellular-network KPI dataset and
// writes it to disk in the checksummed dataset format (simnet.Save) for
// the other tools to consume.
//
// Usage:
//
//	hotgen -out network.hotd -sectors 1000 -weeks 18 -seed 1
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/simnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("hotgen: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the testable entry point: it parses args, generates the dataset
// and reports the outcome on out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hotgen", flag.ContinueOnError)
	var (
		outPath = fs.String("out", "network.hotd", "output path")
		sectors = fs.Int("sectors", 1000, "approximate sector count")
		weeks   = fs.Int("weeks", 18, "observation window in weeks")
		seed    = fs.Uint64("seed", 1, "random seed")
		missing = fs.Float64("missing", 0.045, "target missing-value fraction")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := simnet.DefaultConfig()
	cfg.Sectors = *sectors
	cfg.Weeks = *weeks
	cfg.Seed = *seed
	cfg.MissingTarget = *missing
	if err := cfg.Validate(); err != nil {
		return err
	}
	ds, err := simnet.Generate(cfg)
	if err != nil {
		return err
	}
	if err := ds.SaveFile(*outPath); err != nil {
		return err
	}
	info, err := os.Stat(*outPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d sectors x %d hours x %d KPIs (%.1f MB, %.1f%% missing)\n",
		*outPath, ds.K.N, ds.K.T, ds.K.F, float64(info.Size())/1e6, 100*ds.K.MissingFraction())
	return nil
}
